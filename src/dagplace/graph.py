"""Computation-graph data model: validation, topological order, co-location.

A computation graph is a labeled DAG whose nodes are tensor operations and
whose edges are data dependencies. Node ids are dense integers 0..n-1,
each node carries an operation-type index and an output shape.

A graph is immutable, so what is derived from its edges is built once and
cached: `CompGraph.neighbors` holds every node's successors and
predecessors in edge order, and the topological sort, the cycle witness,
the simulation plan, co-location and the degree features all read it.
Nodes are stored in id order, so every per-node table reads node v at
position v.
`contract_edges` lifts edges through a node-to-group map; co-location and
the pooling of `dagplace.partition` both contract with it.
`validate` makes C-level passes and scans in order only to name a fault.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

# simulate sweeps level by level when (nodes + edges) >= this * levels: a
# level costs a few numpy calls whatever its width, and on random_dag(100 to
# 400) the scalar loop and the level sweep break even at 40 to 60. Depth is
# a property of the input graph, so this is not a tuning knob.
LEVEL_SWEEP_WIDTH = 64


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
    immutable, so derived structures are computed once and cached. The
    simulator's are built on first use, not by `validate`: `shallow`
    picks `simulate`'s sweep from a depth pass that a deep graph stops
    early; a shallow graph then builds `levels`, and a deep one
    `node_table`, whose row for a node with one predecessor names it, so
    the node-by-node sweeps take that node's start without a maximum.
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
    def volumes(self) -> tuple[float, ...]:
        """Each node's output volume; OverflowError past the float64 range."""
        return tuple(volume(node.output_shape) for node in self.nodes)

    @cached_property
    def plan(self) -> SimulationPlan:
        """The topological order and what the latency simulator reads;
        raises CycleDetected on cyclic input."""
        ops = tuple(node.op_type for node in self.nodes)
        return SimulationPlan(
            topo=topo_sort(self),
            preds=self.neighbors.pred,
            volumes=self.volumes,
            op_types=ops,
            op_range=(min(ops, default=0), max(ops, default=0)),
        )

    @cached_property
    def depths(self) -> np.ndarray:
        """Each node's level: the longest path to it from a source, in edges.
        Not built by `validate`; a shallow graph's first `simulate` call
        builds it with `shallow`."""
        return _depths(self.plan, self.num_nodes)

    @cached_property
    def level_count(self) -> int:
        """The number of levels (0 for the empty graph)."""
        return int(self.depths.max(initial=-1)) + 1

    @cached_property
    def shallow(self) -> bool:
        """Whether the levels hold on average at least LEVEL_SWEEP_WIDTH
        nodes plus edges, so `simulate` sweeps level by level. The depth
        pass stops at the first node too deep for that: a deep graph's first
        `simulate` call does not finish it, and a shallow graph's keeps it
        as `depths`."""
        depths = _depths(self.plan, (self.num_nodes + self.num_edges) // LEVEL_SWEEP_WIDTH)
        if depths is None:
            return False
        vars(self).setdefault("depths", depths)  # what the cached property would build
        return True

    @cached_property
    def levels(self) -> LevelTable:
        """The plan grouped by level, for the simulator's level sweep, which
        alone builds it."""
        return level_table(self.plan, self.depths, self.level_count)

    @cached_property
    def node_table(self) -> NodeTable:
        """The plan as one row per node, for the simulator's node-by-node
        sweeps, which alone build it."""
        return node_table(self.plan, self.neighbors.succ)


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
    """Construct and validate a CompGraph; nodes may be OpNode or (id, type,
    shape), in any order: they are kept sorted by id, as `load_graph` does."""
    built = sorted(
        (n if isinstance(n, OpNode) else OpNode(n[0], n[1], tuple(n[2])) for n in nodes),
        key=operator.attrgetter("id"),
    )
    g = CompGraph(tuple(built), tuple((int(u), int(v)) for u, v in edges), num_op_types)
    validate(g)
    return g


def validate(graph: CompGraph) -> None:
    """Check every CompGraph invariant; raise the matching GraphError.

    Checks, in order: dense node ids, nodes stored in id order (every
    per-node table reads node v at position v), op-type bounds, edge
    endpoints, self-loops, duplicate edges, acyclicity. An ordered scan
    names the first fault only when one of the C-level passes finds one.
    """
    n = graph.num_nodes
    ids = [node.id for node in graph.nodes]
    if ids != list(range(n)):
        dense = sorted(ids)
        if dense != list(range(n)):
            missing = min(set(range(n)).difference(dense))
            bad = next(
                i for k, i in enumerate(dense) if not 0 <= i < n or k and dense[k - 1] == i
            )
            raise InvalidNode(
                f"node ids must be exactly 0..{n - 1}: id {missing} is missing, "
                f"id {bad} is {'repeated' if 0 <= bad < n else 'out of range'}"
            )
        pos = next(k for k, i in enumerate(ids) if k != i)
        raise InvalidNode(f"node at position {pos} has id {ids[pos]}: nodes must be in id order")
    ops = [node.op_type for node in graph.nodes]
    dims = itertools.chain.from_iterable(node.output_shape for node in graph.nodes)
    ends = list(itertools.chain.from_iterable(graph.edges))
    if (
        not 0 <= min(ops, default=0) <= max(ops, default=0) < graph.num_op_types
        or min(dims, default=0) < 0
        or not 0 <= min(ends, default=0) <= max(ends, default=0) < n
        or any(map(operator.eq, ends[0::2], ends[1::2]))
        or len(set(graph.edges)) < len(graph.edges)
    ):
        _raise_first_fault(graph)
    graph.plan  # raises CycleDetected on cyclic input


def _raise_first_fault(graph: CompGraph) -> None:
    n, t = graph.num_nodes, graph.num_op_types
    for node in graph.nodes:
        if not 0 <= node.op_type < t:
            raise InvalidNode(f"node {node.id} op_type {node.op_type} outside [0, {t})")
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
    so a cost model's coverage is checked without a pass over the nodes.
    The node-by-node sweeps of `simulate` and `simulate_many` read it one
    row per node, with a node's predecessor and its volume in the row when
    it has exactly one, as the `NodeTable` cached as
    `CompGraph.node_table`; the level sweep of `simulate` reads it
    regrouped by level, as the `LevelTable` cached as `CompGraph.levels`."""

    topo: TopoOrder
    preds: tuple[tuple[int, ...], ...]
    volumes: tuple[float, ...]
    op_types: tuple[int, ...]
    op_range: tuple[int, int]


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The simulation plan node by node, built once and cached as
    `CompGraph.node_table` for the node-by-node sweeps.

    rows: one per node in topological order, (v, op type, pred, volume):
        for a node with exactly one predecessor, that predecessor's id and
        output volume; for a source or a node with several, v's
        predecessor tuple and None
    volumes: each node's output volume, which those other rows read
    sinks: the nodes without successors. A finish time is never above its
        successors', so the latest finish is a sink's.
    """

    rows: tuple[tuple, ...]
    volumes: tuple[float, ...]
    sinks: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LevelTable:
    """The simulation plan regrouped by level, built once and cached as
    `CompGraph.levels`. A node's level is its depth: the longest path to it
    from a source, in edges, so all its predecessors sit at lower levels.

    Nodes are renumbered by their position in `order` (by level, then id),
    so each level is one run of positions. Edges are sorted by the position
    of their destination, so each level's in-edges are one run too, and
    each destination's in-edges a run inside it.

    order: node ids by level, then id
    op_types: the op type at each position
    src, dst: each edge's source and destination positions
    volumes: each edge's source output volume
    heads: the first in-edge of each position (E after the last)
    node_bounds, edge_bounds: level l holds positions node_bounds[l] to
        node_bounds[l + 1] - 1, and their in-edges edge_bounds[l] to
        edge_bounds[l + 1] - 1
    """

    order: np.ndarray
    op_types: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    volumes: np.ndarray
    heads: np.ndarray
    node_bounds: tuple[int, ...]
    edge_bounds: tuple[int, ...]


def level_table(plan: SimulationPlan, depths: np.ndarray, count: int) -> LevelTable:
    """Array passes over the depths and level count (`CompGraph.depths`,
    `CompGraph.level_count`): one stable argsort of the depths and one of
    the edge destinations."""
    preds, n = plan.preds, len(depths)
    order = np.argsort(depths, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    fan_in = np.fromiter(map(len, preds), dtype=np.intp, count=n)
    src = np.fromiter(
        itertools.chain.from_iterable(preds), dtype=np.intp, count=int(fan_in.sum())
    )
    dst = np.repeat(position, fan_in)
    by_dst = np.argsort(dst, kind="stable")
    src, dst = src[by_dst], dst[by_dst]
    heads = np.searchsorted(dst, np.arange(n + 1))
    nodes = np.searchsorted(depths[order], np.arange(count + 1))
    return LevelTable(
        order=order,
        op_types=np.array(plan.op_types, dtype=np.intp)[order],
        src=position[src],
        dst=dst,
        volumes=np.array(plan.volumes, dtype=np.float64)[src],
        heads=heads,
        node_bounds=tuple(nodes.tolist()),
        edge_bounds=tuple(heads[nodes].tolist()),
    )


def _depths(plan: SimulationPlan, levels: int) -> np.ndarray | None:
    """Each node's depth in one pass over the topological order, or None
    as soon as a depth shows that there are more than `levels` levels."""
    preds, depth = plan.preds, [0] * len(plan.preds)
    if depth and levels < 1:
        return None
    for v in plan.topo.order:
        if preds[v]:
            d = depth[v] = 1 + max(map(depth.__getitem__, preds[v]))
            if d >= levels:
                return None
    return np.array(depth, dtype=np.intp)


def node_table(plan: SimulationPlan, succ: tuple[tuple[int, ...], ...]) -> NodeTable:
    """One pass over the topological order, and one over the successor
    lists for the sinks."""
    preds, vol, ops = plan.preds, plan.volumes, plan.op_types
    rows = []
    for v in plan.topo.order:
        if len(preds[v]) == 1:
            (u,) = preds[v]
            rows.append((v, ops[v], u, vol[u]))
        else:
            rows.append((v, ops[v], preds[v], None))
    sinks = tuple(v for v, out in enumerate(succ) if not out)
    return NodeTable(rows=tuple(rows), volumes=vol, sinks=sinks)


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
    sizes = np.bincount(ids, minlength=count)
    type_sums = np.zeros(count, dtype=np.int64)
    np.add.at(type_sums, ids, np.asarray(graph.plan.op_types, dtype=np.int64))
    base, rem = np.divmod(type_sums, sizes)
    op_types = base + (2 * rem > sizes)  # half rounds down
    # members sorted by group, then rank: each group's run ends at its last
    last = np.lexsort((order.rank, ids))[np.cumsum(sizes) - 1]
    shapes = [graph.nodes[v].output_shape for v in last.tolist()]
    coarse_nodes = tuple(map(OpNode, range(count), op_types.tolist(), shapes))

    coarse_src, coarse_dst = contract_edges(ids, count, src, dst)
    coarse_edges = tuple(zip(coarse_src.tolist(), coarse_dst.tolist()))
    coarse = CompGraph(coarse_nodes, coarse_edges, graph.num_op_types)
    validate(coarse)
    return coarse, ids.tolist()


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
    g = CompGraph(tuple(sorted(nodes, key=lambda node: node.id)), tuple(edges), num_op_types)
    try:
        g.volumes
    except OverflowError:
        for node in nodes:  # the first in file order
            try:
                volume(node.output_shape)
            except OverflowError:
                raise ValueError(
                    f"graph file {path}: node {node.id} output_shape volume "
                    "overflows float64"
                ) from None
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
