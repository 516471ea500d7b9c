"""Edge-score driven graph partitioning and pooling.

Each edge gets a sigmoid score from the embeddings of its endpoints. Every
node retains only its single highest-scoring incident edge (counting both
directions), and the weakly connected components of the retained edge set
become the clusters. Pooling contracts clusters into super-nodes: each edge
(u, v) lifts to the cluster pair (m[u], m[v]), and cluster features are the
sums of member rows. Every level is an edge list, never a dense matrix,
and every edge set in the cascade (scored, dropped, retained) is an index
array: `src`/`dst` arrays on a level, (E, 2) arrays of (src, dst) rows
elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autograd import Tape, Tensor, index_passes, stable_sigmoid
from .graph import components, contract_edges
from .nn import Mlp, mlp_forward


@dataclass
class EdgeScores:
    """Scores in (0, 1), one per row of `edges`, an (E, 2) intp array of
    (src, dst) pairs: `tensor` on the tape, in the network's dtype, and
    `scores64` in float64, by which retention orders the edges. A float32
    score is 0 below a logit of about -104 and 1 above about 17 (float64's
    limits are -745 and 37), so float32 scores of a deep level can all
    tie where their float64 values differ. `scores64` defaults to
    `tensor`'s values."""

    edges: np.ndarray
    tensor: Tensor  # |E| x 1, on tape
    scores64: np.ndarray | None = None  # |E|

    def __post_init__(self):
        if self.scores64 is None:
            self.scores64 = self.tensor.data.ravel().astype(np.float64)


@dataclass
class AssignMatrix:
    """Node-to-cluster map: membership[v] is the cluster id of node v.

    Every node belongs to exactly one cluster and every cluster id in
    [0, num_clusters) is used.
    """

    membership: np.ndarray
    num_clusters: int

    def __post_init__(self):
        self.membership = np.asarray(self.membership, dtype=np.intp)
        used = np.unique(self.membership)
        if self.membership.size and (
            used[0] < 0 or used[-1] >= self.num_clusters or len(used) != self.num_clusters
        ):
            raise ValueError("cluster ids must cover 0..num_clusters-1 exactly")

    @functools.cached_property
    def passes(self):
        """The pooling sums' passes, built once: a step and every rebuild of
        its record pool by the same membership."""
        return index_passes(self.membership)

    def compose(self, finer: "AssignMatrix") -> "AssignMatrix":
        """Map this assignment's source nodes through a further coarsening."""
        return AssignMatrix(finer.membership[self.membership], finer.num_clusters)


@dataclass(frozen=True, eq=False)
class PooledGraph:
    """One coarsening level: edge i runs src[i] -> dst[i], in row-major
    (src, dst) order, with no repeats and no self-loops. Pooled levels may
    contain 2-cycles even when the input is a DAG."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def of(cls, graph) -> "PooledGraph":
        """The level of any graph with `num_nodes` and `src`/`dst` arrays
        of distinct edges."""
        n = max(graph.num_nodes, 1)
        keys = graph.src * n + graph.dst
        keys.sort()
        src, dst = np.divmod(keys, n)
        return cls(graph.num_nodes, src, dst)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def two_cycle_pairs(self) -> int:
        """Unordered node pairs joined by edges in both directions."""
        n = self.num_nodes
        up = self.src < self.dst
        reversed_up = self.dst[up] * n + self.src[up]
        return int(np.isin(reversed_up, self.src * n + self.dst).sum())


def score_edges(tape: Tape, z: Tensor, level: PooledGraph, phi: Mlp) -> EdgeScores:
    """sigmoid(phi(z_src * z_dst)) for every edge of `level`, in its order;
    `scores64` is the sigmoid of the same logits in float64."""
    edges = np.stack((level.src, level.dst), axis=1)
    if not level.num_edges:
        return EdgeScores(edges, Tensor(np.zeros((0, 1), z.data.dtype)))
    pair = tape.mul(tape.gather_rows(z, level.src), tape.gather_rows(z, level.dst))
    raw = mlp_forward(tape, pair, phi)
    scores64 = stable_sigmoid(raw.data.astype(np.float64))[:, 0]
    return EdgeScores(edges, tape.sigmoid(raw), scores64)


def drop_edges(
    scores: EdgeScores, rate: float, rng: np.random.Generator | None
) -> EdgeScores:
    """Randomly exclude edges from retention (training-time regularizer)."""
    if rate <= 0.0 or rng is None or not len(scores.edges):
        return scores
    keep = rng.random(len(scores.edges)) >= rate
    if keep.all():
        return scores
    return EdgeScores(
        scores.edges[keep], Tensor(scores.tensor.data[keep]), scores.scores64[keep]
    )


def retain_dominant_edges(scores: EdgeScores, graph) -> np.ndarray:
    """Keep, for each node, its highest-scoring incident edge (either
    direction), by `scores.scores64`.

    Score ties prefer the edge with the smaller source id, then smaller
    destination id. The union over nodes has at most |V| edges. One lexsort
    ranks the edges in that order; a node keeps its incident edge of least
    rank, found by sorting the (node, rank) pairs of all edge ends. Returns
    the kept (src, dst) rows as an (m, 2) array in row-major order.
    """
    e = len(scores.edges)
    if not e:
        return scores.edges
    n = graph.num_nodes
    ends = scores.edges.ravel()
    key = ends[0::2] * n + ends[1::2]
    # edges best first: higher score, then smaller (src, dst)
    order = np.lexsort((key, -scores.scores64))
    rank = np.empty(e, dtype=np.intp)
    rank[order] = np.arange(e)
    # (node, rank) of every edge end, sorted: a node's first is its best edge
    ends = ends * e + rank.repeat(2)
    ends.sort()
    node, rank = np.divmod(ends, e)
    first = np.empty(2 * e, dtype=bool)
    first[0] = True
    np.not_equal(node[1:], node[:-1], out=first[1:])
    best = np.zeros(e, dtype=bool)
    best[rank[first]] = True
    kept = key[order[best]]
    kept.sort()
    return np.stack(np.divmod(kept, n), axis=1)


def parse_clusters(retained: np.ndarray, level) -> AssignMatrix:
    """Weakly connected components of the retained (m, 2) edge rows as
    clusters of the nodes of `level`.

    Isolated nodes become singleton clusters. Cluster ids follow the
    ascending minimum member node id, so the result is independent of the
    order in which retained edges are supplied.
    """
    return AssignMatrix(*components(level.num_nodes, retained[:, 0], retained[:, 1]))


def pool(assign: AssignMatrix, graph: PooledGraph) -> PooledGraph:
    """Contract clusters: every edge (u, v) lifts to the cluster pair
    (m[u], m[v]); pairs inside one cluster vanish and repeats merge."""
    k = assign.num_clusters
    return PooledGraph(k, *contract_edges(assign.membership, k, graph.src, graph.dst))


def pool_features(tape: Tape, z: Tensor, assign: AssignMatrix) -> Tensor:
    """Differentiable cluster feature sums (gradient flows to member rows)."""
    return tape.scatter_add_rows(
        z, assign.membership, assign.num_clusters, assign.passes
    )
