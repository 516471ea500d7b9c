"""Computation-graph data model: validation, topological order, co-location.

A computation graph is a labeled DAG whose nodes are tensor operations and
whose edges are data dependencies. Node ids are dense integers 0..n-1,
each node carries an operation-type index and an output shape.

A graph is immutable, so what is derived from its edges is built once and
cached: `CompGraph.neighbors` holds every node's successors and
predecessors in edge order, and the topological sort, the cycle witness,
the simulation plan, co-location and the degree features all read it.
`contract_edges` lifts edges through a node-to-group map; co-location and
the pooling of `dagplace.partition` both contract with it.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GraphError(Exception):
    """Base class for computation-graph validation failures."""


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class DanglingEdge(GraphError):
    """An edge endpoint does not name an existing node id."""


class InvalidNode(GraphError):
    """Node ids are not dense 0..n-1, or a node field is out of range."""


class CycleDetected(GraphError):
    def __init__(self, cycle: list[int]):
        super().__init__(f"graph contains a cycle: {' -> '.join(map(str, cycle))}")
        self.cycle = cycle


@dataclass(frozen=True)
class OpNode:
    """One operation: dense id, op-type index, tensor output shape."""

    id: int
    op_type: int
    output_shape: tuple[int, ...] = ()


@dataclass(frozen=True)
class CompGraph:
    """Directed acyclic operation graph.

    `num_op_types` is the size of the op-type vocabulary shared by the
    graph collection; every node's op_type must be below it. The graph is
    immutable, so derived structures are computed once and cached.
    """

    nodes: tuple[OpNode, ...]
    edges: tuple[tuple[int, int], ...]
    num_op_types: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense binary adjacency matrix A with A[u, v] = 1 iff (u, v) is an edge."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        for u, v in self.edges:
            a[u, v] = 1.0
        return a

    @cached_property
    def neighbors(self) -> Neighbors:
        """Successors and predecessors of every node, from one pass over
        the edges."""
        succ: list[list[int]] = [[] for _ in range(self.num_nodes)]
        pred: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            succ[u].append(v)
            pred[v].append(u)
        return Neighbors(tuple(map(tuple, succ)), tuple(map(tuple, pred)))

    @cached_property
    def undirected_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of every node when edge directions are ignored."""
        return tuple(s + p for s, p in zip(self.neighbors.succ, self.neighbors.pred))

    @cached_property
    def plan(self) -> SimulationPlan:
        """The topological order and what the latency simulator reads;
        raises CycleDetected on cyclic input."""
        ops = tuple(node.op_type for node in self.nodes)
        return SimulationPlan(
            topo=topo_sort(self),
            preds=self.neighbors.pred,
            volumes=tuple(volume(node.output_shape) for node in self.nodes),
            op_types=ops,
            op_range=(min(ops, default=0), max(ops, default=0)),
        )


@dataclass(frozen=True)
class Neighbors:
    """Each node's successors and predecessors, both in edge order."""

    succ: tuple[tuple[int, ...], ...]
    pred: tuple[tuple[int, ...], ...]


def make_graph(
    nodes: list[OpNode] | list[tuple[int, int, tuple[int, ...]]],
    edges: list[tuple[int, int]],
    num_op_types: int,
) -> CompGraph:
    """Construct and validate a CompGraph; nodes may be OpNode or (id, type, shape)."""
    built = tuple(
        n if isinstance(n, OpNode) else OpNode(n[0], n[1], tuple(n[2]))
        for n in nodes
    )
    g = CompGraph(built, tuple((int(u), int(v)) for u, v in edges), num_op_types)
    validate(g)
    return g


def validate(graph: CompGraph) -> None:
    """Check every CompGraph invariant; raise the matching GraphError.

    Checks, in order: dense node ids, op-type bounds, edge endpoints,
    self-loops, duplicate edges, acyclicity.
    """
    n = graph.num_nodes
    ids = sorted(node.id for node in graph.nodes)
    if ids != list(range(n)):
        raise InvalidNode(f"node ids must be exactly 0..{n - 1}, got {ids}")
    for node in graph.nodes:
        if not 0 <= node.op_type < graph.num_op_types:
            raise InvalidNode(
                f"node {node.id} op_type {node.op_type} outside "
                f"[0, {graph.num_op_types})"
            )
        if any(s < 0 for s in node.output_shape):
            raise InvalidNode(f"node {node.id} has negative output_shape entry")
    seen: set[tuple[int, int]] = set()
    for u, v in graph.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise DanglingEdge(f"edge ({u}, {v}) references a missing node id")
        if u == v:
            raise SelfLoop(f"self-loop on node {u}")
        if (u, v) in seen:
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    graph.plan  # raises CycleDetected on cyclic input


def volume(shape: tuple[int, ...]) -> float:
    """Tensor element count; empty shapes count as one unit."""
    return float(math.prod(shape)) if shape else 1.0


@dataclass(frozen=True)
class TopoOrder:
    """A topological order and its inverse (node id -> position)."""

    order: tuple[int, ...]
    rank: tuple[int, ...]


@dataclass(frozen=True)
class SimulationPlan:
    """Per-graph inputs of the latency kernels, built once and cached as
    `CompGraph.plan`: the topological order, each node's predecessors in
    edge order, each node's output volume (what it sends along every
    out-edge), and each node's op type with the (min, max) of all of them,
    so a cost model's coverage is checked without a pass over the nodes."""

    topo: TopoOrder
    preds: tuple[tuple[int, ...], ...]
    volumes: tuple[float, ...]
    op_types: tuple[int, ...]
    op_range: tuple[int, int]


def topo_sort(graph: CompGraph) -> TopoOrder:
    """Kahn's algorithm with a min-id frontier, so the order is deterministic."""
    n = graph.num_nodes
    succ = graph.neighbors.succ
    indeg = [len(p) for p in graph.neighbors.pred]
    frontier = [v for v in range(n) if indeg[v] == 0]
    heapq.heapify(frontier)
    order: list[int] = []
    while frontier:
        v = heapq.heappop(frontier)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(frontier, w)
    if len(order) < n:
        raise CycleDetected(_find_cycle(graph, {v for v in range(n) if indeg[v] > 0}))
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    return TopoOrder(tuple(order), tuple(rank))


def _find_cycle(graph: CompGraph, remaining: set[int]) -> list[int]:
    """Walk successor links inside the unresolvable node set until a repeat."""
    succ = graph.neighbors.succ
    start = min(remaining)
    path = [start]
    seen = {start: 0}
    v = start
    while True:
        v = next(w for w in succ[v] if w in remaining)
        if v in seen:
            return path[seen[v]:] + [v]
        seen[v] = len(path)
        path.append(v)


def components(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of nodes 0..n-1 under the undirected pairs
    (u[i], v[i]), given as two index arrays of equal length.

    Returns the component id of every node and the component count. Ids
    follow the ascending minimum member, so they do not depend on the
    order of the pairs. Each round hooks, for every pair, the larger root
    of its ends under the smaller, then jumps pointers until every node
    points at a root. A parent is never larger than its child, so each root
    is the minimum of its tree.
    """
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        if (ru == rv).all():
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root], int(np.count_nonzero(is_root))


def contract_edges(
    membership: np.ndarray, num_groups: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Contract groups of nodes: every edge src[i] -> dst[i] lifts to the
    group pair (m[src[i]], m[dst[i]]). Pairs inside one group vanish,
    repeats merge, and the rest come back in row-major order."""
    gsrc = membership[src]
    gdst = membership[dst]
    keys = np.unique((gsrc * num_groups + gdst)[gsrc != gdst])
    return keys // num_groups, keys % num_groups


def colocate(graph: CompGraph) -> tuple[CompGraph, list[int]]:
    """Merge sole-parent/sole-child chains into single coarse nodes.

    An edge (v, w) is a chain pair when w is the only out-neighbor of v and
    v is the only in-neighbor of w, so one mask over the edge array (the
    out-degree of src is 1 and the in-degree of dst is 1) picks them all.
    Chain pairs fall into the same co-location set, transitively along
    chains. A merged set keeps the rounded mean of its members' op_type
    indices (ties round down) and the output shape of its topologically
    last member. One pass reaches the fixed point: each set is a path whose
    interior endpoints have no other edges, so contraction never creates
    new mergeable pairs.

    Returns the coarse graph and a membership list mapping node id to
    coarse id; coarse ids are numbered by ascending minimum member id.
    """
    n = graph.num_nodes
    order = graph.plan.topo
    edges = np.array(graph.edges, dtype=np.intp).reshape(-1, 2)
    src, dst = edges[:, 0], edges[:, 1]
    chain = (np.bincount(src, minlength=n)[src] == 1) & (
        np.bincount(dst, minlength=n)[dst] == 1
    )
    ids, count = components(n, src[chain], dst[chain])
    membership = ids.tolist()
    groups: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(membership):
        groups[c].append(v)

    coarse_nodes = []
    for i, group in enumerate(groups):
        type_sum = sum(graph.nodes[v].op_type for v in group)
        base, rem = divmod(type_sum, len(group))
        op_type = base + 1 if 2 * rem > len(group) else base  # half rounds down
        last = max(group, key=lambda v: order.rank[v])
        coarse_nodes.append(OpNode(i, op_type, graph.nodes[last].output_shape))

    coarse_src, coarse_dst = contract_edges(ids, count, src, dst)
    coarse_edges = tuple(zip(coarse_src.tolist(), coarse_dst.tolist()))
    coarse = CompGraph(tuple(coarse_nodes), coarse_edges, graph.num_op_types)
    validate(coarse)
    return coarse, membership


def load_graph(path: str | Path) -> CompGraph:
    """Read a graph JSON file and validate it. An output shape whose
    element count does not fit a float64 is a ValueError naming the file.

    Schema: {"num_op_types": int,
             "nodes": [{"id": int, "op_type": int, "output_shape": [int, ...]}],
             "edges": [[src, dst], ...]}
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        nodes = [
            OpNode(int(n["id"]), int(n["op_type"]), tuple(int(s) for s in n["output_shape"]))
            for n in data["nodes"]
        ]
        edges = [(int(u), int(v)) for u, v in data["edges"]]
        num_op_types = int(data["num_op_types"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidNode(f"malformed graph file {path}: {exc}") from exc
    for node in nodes:
        try:
            volume(node.output_shape)
        except OverflowError:
            raise ValueError(
                f"graph file {path}: node {node.id} output_shape volume "
                "overflows float64"
            ) from None
    nodes.sort(key=lambda node: node.id)
    g = CompGraph(tuple(nodes), tuple(edges), num_op_types)
    validate(g)
    return g


def save_graph(graph: CompGraph, path: str | Path) -> None:
    data = {
        "num_op_types": graph.num_op_types,
        "nodes": [
            {"id": n.id, "op_type": n.op_type, "output_shape": list(n.output_shape)}
            for n in graph.nodes
        ],
        "edges": [[u, v] for u, v in graph.edges],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
