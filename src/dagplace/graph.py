"""Computation-graph data model: validation, topological order, co-location.

A computation graph is a labeled DAG whose nodes are tensor operations and
whose edges are data dependencies. Node ids are dense integers 0..n-1,
each node carries an operation-type index and an output shape.

A graph is its arrays from the file to the first training step: the node
`ids` as given (`validate` checks that they are 0..n-1 in order), the
`op_types`, a shape table (node v's output shape is
`shape_dims[shape_starts[v]:shape_starts[v + 1]]`) and the `src`/`dst`
edge arrays. `load_graph` and `colocate` build no object per node or edge.
A graph is immutable, so what is derived from it is built once and cached
on first read: `topo`, `volumes` and `op_range`, which `validate` builds,
and the CSR neighbour lists `succ`, `pred` and `undirected` (one flat
array of every node's neighbours in edge order, plus each node's start
offset). The views `nodes` and `edges`, with one Python object per node
or edge, which `save_graph` and the tests read, and the simulator's
tables (`plan`, `in_edges`, `depths`, `levels`, `node_table`) are built
only when something reads them.
`contract_edges` lifts edges through a node-to-group map; co-location and
the pooling of `dagplace.partition` both contract with it.
`validate` makes array passes and scans in order only to name a fault.
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
from typing import NamedTuple

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


class Csr(NamedTuple):
    """Adjacency lists as two flat arrays: node v's neighbours are
    `targets[offsets[v]:offsets[v + 1]]`, in edge order."""

    offsets: np.ndarray
    targets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        """Each node's number of neighbours."""
        return self.offsets[1:] - self.offsets[:-1]

    def lists(self) -> list[list[int]]:
        """Each node's neighbours as a Python list, for per-node loops."""
        flat, off = self.targets.tolist(), self.offsets.tolist()
        return [flat[a:b] for a, b in zip(off, off[1:])]


def _csr(n: int, keys: np.ndarray, targets: np.ndarray) -> Csr:
    """`targets` grouped by node `keys`, each group in the order given."""
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.bincount(keys, minlength=n).cumsum(out=offsets[1:])
    return Csr(offsets, targets[keys.argsort(kind="stable")])


def _ints(values) -> np.ndarray:
    """An int64 array of integers; an object array if one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _starts(lengths) -> np.ndarray:
    """Offsets of consecutive runs of the given lengths, with the end."""
    starts = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.asarray(lengths, dtype=np.intp).cumsum(out=starts[1:])
    return starts


def _take_shapes(starts: np.ndarray, dims: np.ndarray, rows: np.ndarray):
    """The shape table of the nodes `rows`, in that order."""
    lengths = (starts[1:] - starts[:-1])[rows]
    new = _starts(lengths)
    return new, dims[np.arange(new[-1]) + (starts[:-1][rows] - new[:-1]).repeat(lengths)]


class CompGraph:
    """Directed acyclic operation graph, stored as arrays (module docstring).

    `num_op_types` is the size of the op-type vocabulary shared by the
    graph collection; every node's op_type must be below it. The
    constructor takes `OpNode`s and (src, dst) pairs, `from_arrays` the
    arrays; neither validates. Graphs are equal when their arrays are. On
    first use, `shallow` picks `simulate`'s sweep from a depth pass that a
    deep graph stops early; a shallow graph then builds `levels`, a deep
    one `node_table`.
    """

    def __init__(self, nodes, edges, num_op_types: int):
        nodes, edges = tuple(nodes), tuple(edges)
        shapes = [node.output_shape for node in nodes]
        self._set(
            _ints([node.id for node in nodes]),
            _ints([node.op_type for node in nodes]),
            _starts(list(map(len, shapes))),
            _ints(list(itertools.chain.from_iterable(shapes))),
            _ints([u for u, _ in edges]),
            _ints([v for _, v in edges]),
            num_op_types,
        )

    @classmethod
    def from_arrays(
        cls, ids, op_types, shape_starts, shape_dims, src, dst, num_op_types: int
    ) -> CompGraph:
        graph = cls.__new__(cls)
        graph._set(ids, op_types, shape_starts, shape_dims, src, dst, num_op_types)
        return graph

    def _set(self, ids, op_types, shape_starts, shape_dims, src, dst, num_op_types):
        self.ids, self.op_types = ids, op_types
        self.shape_starts, self.shape_dims = shape_starts, shape_dims
        self.src, self.dst = src, dst
        self.num_op_types = num_op_types
        for a in self._arrays():
            a.flags.writeable = False

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.ids, self.op_types, self.shape_starts, self.shape_dims, self.src, self.dst)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompGraph):
            return NotImplemented
        return self.num_op_types == other.num_op_types and all(
            map(np.array_equal, self._arrays(), other._arrays())
        )

    __hash__ = None

    @property
    def num_nodes(self) -> int:
        return len(self.op_types)

    @property
    def num_edges(self) -> int:
        return len(self.src)

    def adjacency(self) -> np.ndarray:
        """Dense binary adjacency matrix A with A[u, v] = 1 iff (u, v) is an edge."""
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=np.float64)
        a[self.src, self.dst] = 1.0
        return a

    @cached_property
    def nodes(self) -> tuple[OpNode, ...]:
        """One OpNode per node, in stored order: a view of the arrays."""
        flat, off = self.shape_dims.tolist(), self.shape_starts.tolist()
        shapes = [tuple(flat[a:b]) for a, b in zip(off, off[1:])]
        return tuple(map(OpNode, self.ids.tolist(), self.op_types.tolist(), shapes))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (src, dst) pairs in edge order: a view of the arrays."""
        return tuple(zip(self.src.tolist(), self.dst.tolist()))

    @cached_property
    def succ(self) -> Csr:
        """Each node's successors, in edge order."""
        return _csr(self.num_nodes, self.src, self.dst)

    @cached_property
    def pred(self) -> Csr:
        """Each node's predecessors, in edge order."""
        return _csr(self.num_nodes, self.dst, self.src)

    @cached_property
    def undirected(self) -> Csr:
        """Each node's neighbours when edge directions are ignored: its
        successors, then its predecessors."""
        s, p = self.succ, self.pred
        e = self.num_edges
        flat = np.empty(2 * e, dtype=np.intp)
        # before v's successors come the predecessors of the nodes before v,
        # and before its predecessors the successors of v and the nodes before
        flat[np.arange(e) + p.offsets[:-1].repeat(s.counts)] = s.targets
        flat[np.arange(e) + s.offsets[1:].repeat(p.counts)] = p.targets
        return Csr(s.offsets + p.offsets, flat)

    @cached_property
    def volumes(self) -> np.ndarray:
        """Each node's output volume; OverflowError past the float64 range."""
        vol = _volumes(self.shape_starts, self.shape_dims)
        if np.isinf(vol).any():
            raise OverflowError("output_shape volume overflows float64")
        return vol

    @cached_property
    def topo(self) -> TopoOrder:
        """`topo_sort`'s order, which `validate` builds; raises
        CycleDetected on cyclic input."""
        return topo_sort(self)

    @cached_property
    def op_range(self) -> tuple[int, int]:
        """The (min, max) op type (0, 0 for the empty graph), so a cost
        model's coverage is checked without a pass over the nodes."""
        if not self.num_nodes:
            return 0, 0
        return int(self.op_types.min()), int(self.op_types.max())

    @cached_property
    def plan(self) -> SimulationPlan:
        """The graph as Python lists for the per-node loops of the EFT pass
        and the exact search, which alone build it."""
        return SimulationPlan(self.pred.lists(), self.succ.lists(), self.op_types.tolist())

    @cached_property
    def in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """By topological position, for the simulator's depth pass and node
        table: each node's offset into `pred.targets`, its number of
        predecessors, and its first predecessor (any node if it has none)."""
        order, pred = self.topo.order, self.pred
        starts = pred.offsets[order]
        first = pred.targets.take(starts, mode="clip") if self.num_edges else 0 * order
        return starts, pred.offsets[order + 1] - starts, first

    @cached_property
    def depths(self) -> np.ndarray:
        """Each node's level: the longest path to it from a source, in edges.
        Not built by `validate`; a shallow graph's first `simulate` call
        builds it with `shallow`."""
        return _depths(self, self.num_nodes)

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
        depths = _depths(self, (self.num_nodes + self.num_edges) // LEVEL_SWEEP_WIDTH)
        if depths is None:
            return False
        vars(self).setdefault("depths", depths)  # what the cached property would build
        return True

    @cached_property
    def levels(self) -> LevelTable:
        """The graph grouped by level, for the simulator's level sweep,
        which alone builds it."""
        return level_table(self, self.depths, self.level_count)

    @cached_property
    def node_table(self) -> NodeTable:
        """The graph as one row per node, for the simulator's node-by-node
        sweeps, which alone build it."""
        return node_table(self)


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
    g = CompGraph(built, [(int(u), int(v)) for u, v in edges], num_op_types)
    validate(g)
    return g


def validate(graph: CompGraph) -> None:
    """Check every CompGraph invariant; raise the matching GraphError.

    Checks, in order: dense node ids, nodes stored in id order (every
    per-node table reads node v at position v), op-type bounds, edge
    endpoints, self-loops, duplicate edges, acyclicity, output volumes
    (OverflowError past the float64 range). An ordered scan names the
    first fault only when one of the array passes finds one.
    """
    n = graph.num_nodes
    if not (graph.ids == np.arange(n)).all():
        ids = graph.ids.tolist()
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
    dims, src, dst = graph.shape_dims, graph.src, graph.dst
    if (
        n and not 0 <= graph.op_range[0] <= graph.op_range[1] < graph.num_op_types
        or dims.size and dims.min() < 0
        or src.size and not 0 <= min(src.min(), dst.min()) <= max(src.max(), dst.max()) < n
        or (src == dst).any()
        or not _all_distinct(src * n + dst)
    ):
        _raise_first_fault(graph)
    graph.topo  # raises CycleDetected on cyclic input
    graph.volumes  # raises OverflowError past the float64 range


def _all_distinct(keys: np.ndarray) -> bool:
    """Whether no value repeats in `keys`, which this sorts in place."""
    keys.sort()
    return bool((keys[1:] != keys[:-1]).all())


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


def _volumes(starts: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """`volume` of every shape of a shape table, inf where it overflows.

    A product of integers is exact in float64, in any order, when its
    magnitude is nonzero and below 2**53: every partial product is an
    integer no larger. The other shapes, with a zero or a huge entry, take
    `volume` itself.
    """
    vol = np.ones(len(starts) - 1)
    inexact = range(len(vol))
    if dims.dtype != object:
        full = starts[:-1] < starts[1:]  # empty shapes keep 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            vol[full] = np.multiply.reduceat(dims.astype(np.float64), starts[:-1][full])
        size = np.abs(vol)
        inexact = (~(size < 2.0**53) | (size == 0)).nonzero()[0].tolist()  # NaN too
    for v in inexact:
        try:
            vol[v] = volume(dims[starts[v] : starts[v + 1]].tolist())
        except OverflowError:
            vol[v] = math.inf
    return vol


class TopoOrder(NamedTuple):
    """A topological order and its inverse (node id -> position), as
    intp arrays, and the order as the Python list that per-node loops
    read."""

    order: np.ndarray
    rank: np.ndarray
    nodes: list[int]


class SimulationPlan(NamedTuple):
    """Each node's predecessors and successors in edge order, and its op
    type, as Python lists, built once and cached as `CompGraph.plan`."""

    preds: list[list[int]]
    succ: list[list[int]]
    op_types: list[int]


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The graph node by node, built once and cached as
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
    volumes: list[float]
    sinks: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LevelTable:
    """The graph regrouped by level, built once and cached as
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


def level_table(graph: CompGraph, depths: np.ndarray, count: int) -> LevelTable:
    """Array passes over the depths and level count (`CompGraph.depths`,
    `CompGraph.level_count`): one stable argsort of the depths and one of
    the edge destinations."""
    n, pred = len(depths), graph.pred
    order = depths.argsort(kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    dst = position.repeat(pred.counts)
    by_dst = dst.argsort(kind="stable")
    src, dst = pred.targets[by_dst], dst[by_dst]
    heads = dst.searchsorted(np.arange(n + 1))
    nodes = depths[order].searchsorted(np.arange(count + 1))
    return LevelTable(
        order=order,
        op_types=graph.op_types[order],
        src=position[src],
        dst=dst,
        volumes=graph.volumes[src],
        heads=heads,
        node_bounds=tuple(nodes.tolist()),
        edge_bounds=tuple(heads[nodes].tolist()),
    )


def _depths(graph: CompGraph, levels: int) -> np.ndarray | None:
    """Each node's depth in one pass over the topological order, or None
    as soon as a depth shows that there are more than `levels` levels. The
    order is read in chunks that double in length, so a pass that stops
    early converts to Python little more than it reads."""
    n = graph.num_nodes
    if n and levels < 1:
        return None
    nodes, (starts, fan_in, first), targets = graph.topo.nodes, graph.in_edges, graph.pred.targets
    depth = [0] * n
    lo, size = 0, 64
    while lo < n:
        hi, size = lo + size, 2 * size
        rows = zip(nodes[lo:hi], *(x[lo:hi].tolist() for x in (fan_in, first, starts)))
        for v, k, u, a in rows:
            if k == 1:
                d = depth[v] = depth[u] + 1
            elif k:
                d = depth[v] = 1 + max(map(depth.__getitem__, targets[a : a + k].tolist()))
            else:
                continue
            if d >= levels:
                return None
        lo = hi
    return np.array(depth, dtype=np.intp)


def node_table(graph: CompGraph) -> NodeTable:
    """Array passes over the topological order, and a Python pass over the
    nodes with other than one predecessor for their tuples."""
    starts, fan_in, first = graph.in_edges
    us, ws = first.tolist(), graph.volumes[first].tolist()
    other, flat = (fan_in != 1).nonzero()[0], graph.pred.targets.tolist()
    for i, a, k in zip(other.tolist(), starts[other].tolist(), fan_in[other].tolist()):
        us[i], ws[i] = tuple(flat[a : a + k]), None
    return NodeTable(
        rows=tuple(zip(graph.topo.nodes, graph.op_types[graph.topo.order].tolist(), us, ws)),
        volumes=graph.volumes.tolist(),
        sinks=tuple((graph.succ.counts == 0).nonzero()[0].tolist()),
    )


def topo_sort(graph: CompGraph) -> TopoOrder:
    """Kahn's algorithm with a min-id frontier over the CSR successor
    lists, so the order is deterministic. It builds both CSR lists: the
    in-degrees are the predecessor lists' lengths."""
    n = graph.num_nodes
    off, succ = graph.succ.offsets.tolist(), graph.succ.targets.tolist()
    indeg = graph.pred.counts
    frontier = (indeg == 0).nonzero()[0].tolist()  # ascending, so a heap
    indeg = indeg.tolist()
    order: list[int] = []
    while frontier:
        v = heapq.heappop(frontier)
        order.append(v)
        for w in succ[off[v] : off[v + 1]]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(frontier, w)
    if len(order) < n:
        raise CycleDetected(_find_cycle(graph, {v for v in range(n) if indeg[v] > 0}))
    array = np.array(order, dtype=np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[array] = np.arange(n)
    return TopoOrder(array, rank, order)


def _find_cycle(graph: CompGraph, remaining: set[int]) -> list[int]:
    """Walk successor links inside the unresolvable node set until a repeat."""
    succ = graph.succ.lists()
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
    return (is_root.cumsum() - 1)[root], int(np.count_nonzero(is_root))


def contract_edges(
    membership: np.ndarray, num_groups: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Contract groups of nodes: every edge src[i] -> dst[i] lifts to the
    group pair (m[src[i]], m[dst[i]]). Pairs inside one group vanish,
    repeats merge, and the rest come back in row-major order."""
    gsrc = membership[src]
    gdst = membership[dst]
    # sorted, then the first of each run: np.unique hashes integer keys,
    # about ten times slower than a sort at a few thousand edges
    keys = (gsrc * num_groups + gdst)[gsrc != gdst]
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return keys // num_groups, keys % num_groups


def colocate(graph: CompGraph) -> tuple[CompGraph, list[int]]:
    """Merge sole-parent/sole-child chains into single coarse nodes.

    An edge (v, w) is a chain pair when w is the only out-neighbor of v and
    v is the only in-neighbor of w, so one mask over the edge arrays (the
    out-degree of src is 1 and the in-degree of dst is 1) picks them all.
    Chain pairs fall into the same co-location set, transitively along
    chains. A merged set keeps the rounded mean of its members' op_type
    indices (ties round down) and the output shape of its topologically
    last member. One pass reaches the fixed point: each set is a path whose
    interior endpoints have no other edges, so contraction never creates
    new mergeable pairs.

    Returns the coarse graph, built from arrays, and a membership list
    mapping node id to coarse id; coarse ids are numbered by ascending
    minimum member id.
    """
    n, src, dst = graph.num_nodes, graph.src, graph.dst
    chain = (np.bincount(src, minlength=n)[src] == 1) & (
        np.bincount(dst, minlength=n)[dst] == 1
    )
    ids, count = components(n, src[chain], dst[chain])
    sizes = np.bincount(ids, minlength=count)
    type_sums = np.zeros(count, dtype=np.int64)
    np.add.at(type_sums, ids, graph.op_types)
    base, rem = np.divmod(type_sums, sizes)
    op_types = base + (2 * rem > sizes)  # half rounds down
    # members sorted by group, then rank: each group's run ends at its last
    last = np.lexsort((graph.topo.rank, ids))[sizes.cumsum() - 1]
    coarse = CompGraph.from_arrays(
        np.arange(count),
        op_types,
        *_take_shapes(graph.shape_starts, graph.shape_dims, last),
        *contract_edges(ids, count, src, dst),
        graph.num_op_types,
    )
    vars(coarse)["volumes"] = graph.volumes[last]  # what the cached property would build
    validate(coarse)
    return coarse, ids.tolist()


def load_graph(path: str | Path) -> CompGraph:
    """Read a graph JSON file into arrays and validate it. Every id, op
    type, shape entry, edge endpoint and `num_op_types` must be a JSON
    integer. An output shape whose element count does not fit a float64 is
    a ValueError naming the file.

    Schema: {"num_op_types": int,
             "nodes": [{"id": int, "op_type": int, "output_shape": [int, ...]}],
             "edges": [[src, dst], ...]}
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        nodes = data["nodes"]
        ids, ops, shapes = (
            list(map(operator.itemgetter(key), nodes))
            for key in ("id", "op_type", "output_shape")
        )
        lengths = list(map(len, shapes))
        dims = list(itertools.chain.from_iterable(shapes))
        edges = data["edges"]
        if set(map(len, edges)) - {2}:
            raise ValueError("every edge must be a [src, dst] pair")
        ends = list(itertools.chain.from_iterable(edges))
        num_op_types = data["num_op_types"]
        for name, values in (
            ("id", ids), ("op_type", ops), ("output_shape entry", dims),
            ("edge endpoint", ends), ("num_op_types", [num_op_types]),
        ):
            if set(map(type, values)) - {int}:
                bad = next(v for v in values if type(v) is not int)
                raise ValueError(f"{name} {bad!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidNode(f"malformed graph file {path}: {exc}") from exc
    ids, ops, starts, dims = _ints(ids), _ints(ops), _starts(lengths), _ints(dims)
    vol = _volumes(starts, dims)
    overflow = np.isinf(vol).nonzero()[0]
    if overflow.size:  # the first in file order
        raise ValueError(
            f"graph file {path}: node {ids[overflow[0]]} output_shape volume "
            "overflows float64"
        )
    if (ids[1:] < ids[:-1]).any():
        by_id = ids.argsort(kind="stable")
        ids, ops, vol = ids[by_id], ops[by_id], vol[by_id]
        starts, dims = _take_shapes(starts, dims, by_id)
    src, dst = _ints(ends).reshape(-1, 2).T.copy()
    g = CompGraph.from_arrays(ids, ops, starts, dims, src, dst, num_op_types)
    vars(g)["volumes"] = vol  # what the cached property would build
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
