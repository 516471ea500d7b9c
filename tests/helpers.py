"""Shared test oracles: finite differences and independent reimplementations."""

from __future__ import annotations

import heapq
import itertools
import json

import numpy as np

from dagplace.autograd import Tensor, Workspace
from dagplace.graph import (
    CompGraph,
    CycleDetected,
    DanglingEdge,
    DuplicateEdge,
    InvalidNode,
    OpNode,
    SelfLoop,
    validate,
    volume,
)
from dagplace.partition import PooledGraph


def central_difference(f, tensors, h: float = 1e-5) -> list[np.ndarray]:
    """d f() / d t for every entry of every tensor, by central differences.

    `f` must recompute the scalar loss from the tensors' current `.data`;
    entries are perturbed in place and restored.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = f()
            flat[i] = keep - h
            lo = f()
            flat[i] = keep
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor: float = 1e-6) -> float:
    """Largest entrywise relative error, with a denominator floor so that
    finite-difference noise around zero entries does not register."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def longest_path_latency(graph: CompGraph, placement, cm) -> float:
    """Independent simulator oracle: memoized recursion over predecessors
    instead of a forward topological sweep. It builds its own predecessor
    lists from the edges, so it shares nothing with the simulation plan."""
    placement = np.asarray(placement, dtype=np.intp)
    preds: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        preds[v].append(u)
    memo: dict[int, float] = {}

    def finish(v: int) -> float:
        if v in memo:
            return memo[v]
        start = 0.0
        for u in preds[v]:
            arrival = finish(u) + cm.transfer[placement[u], placement[v]] * volume(
                graph.nodes[u].output_shape
            )
            start = max(start, arrival)
        memo[v] = start + cm.compute[graph.nodes[v].op_type, placement[v]]
        return memo[v]

    return max((finish(v) for v in range(graph.num_nodes)), default=0.0)


def product_optimal(graph: CompGraph, cm, num_devices: int | None = None):
    """Reference exhaustive search: every placement in itertools.product
    (lexicographic) order, one `simulate` call each, first strict minimum."""
    from dagplace.simulator import simulate

    d = cm.num_devices if num_devices is None else num_devices
    best_placement, best_latency = None, np.inf
    for combo in itertools.product(range(d), repeat=graph.num_nodes):
        lat = simulate(graph, np.asarray(combo, dtype=np.intp), cm)
        if lat < best_latency:
            best_latency = lat
            best_placement = np.asarray(combo, dtype=np.intp)
    return best_placement, float(best_latency)


def scan_optimal(graph: CompGraph, cm, num_devices: int | None = None, chunk: int = 4096):
    """Reference exhaustive search that scores every placement in full:
    `simulate_many` on `chunk` consecutive indices at a time, placement i
    being the n-digit base-d expansion of i, first strict minimum."""
    from dagplace.simulator import simulate_many

    d = cm.num_devices if num_devices is None else num_devices
    n = graph.num_nodes
    best_placement, best_latency = None, np.inf
    for lo in range(0, d**n, chunk):
        index = np.arange(lo, min(lo + chunk, d**n))
        placements = np.array(np.unravel_index(index, (d,) * n), dtype=np.intp).T
        latencies = simulate_many(graph, placements, cm)
        i = int(np.argmin(latencies))
        if latencies[i] < best_latency:
            best_latency, best_placement = latencies[i], placements[i].copy()
    return best_placement, float(best_latency)


def ball_sizes_reference(graph: CompGraph, v: int) -> np.ndarray:
    """N(v, r) for r = 1, 2, ..., the eccentricity of v: the number of other
    nodes within r undirected hops, from one level-by-level BFS."""
    nbrs = undirected_neighbors_reference(graph)
    seen = bytearray(graph.num_nodes)
    seen[v] = 1
    frontier = [v]
    level_sizes = []
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = 1
                    nxt.append(w)
        if nxt:
            level_sizes.append(len(nxt))
        frontier = nxt
    return np.cumsum(level_sizes, dtype=np.int64)


def fractal_dimension_reference(graph: CompGraph, v: int) -> float:
    """Bit-identity reference for one node's fractal dimension: one BFS from
    v and the least-squares slope of log N(v, r) against log r."""
    # BFS levels are contiguous, so the distinct distances are 1..len(counts)
    return fit_slope_reference(ball_sizes_reference(graph, v))


def fit_slope_reference(counts: np.ndarray) -> float:
    """One node's least-squares slope of log counts[r - 1] against log r,
    r >= 1; 0.0 for fewer than two points."""
    if len(counts) < 2:
        return 0.0
    x = np.log(np.arange(1, len(counts) + 1, dtype=np.float64))
    y = np.log(counts.astype(np.float64))
    if len(counts) == 2:
        # two-point fit degenerates to the exact slope
        return float((y[1] - y[0]) / (x[1] - x[0]))
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / np.dot(xc, xc))


def positional_encoding_reference(rank: int, cfg) -> np.ndarray:
    """One rank's sinusoidal encoding, entry by entry: entry 2i is
    sin(rank / base^(2i/d_pos)) and entry 2i+1 the matching cos."""
    out = np.empty(cfg.d_pos, dtype=np.float64)
    for i in range(cfg.d_pos // 2):
        angle = rank / cfg.pe_base ** (2 * i / cfg.d_pos)
        out[2 * i] = np.sin(angle)
        out[2 * i + 1] = np.cos(angle)
    return out


def build_features_reference(graph: CompGraph, cfg) -> np.ndarray:
    """`build_features` from per-node and per-rank loops: every segment is
    filled one node at a time, and the fractal column fits each node's ball
    sizes (from the shared bitset BFS) on its own."""
    from dagplace.features import ball_sizes

    n, t = graph.num_nodes, graph.num_op_types
    types = np.zeros((n, t))
    width = max((len(node.output_shape) for node in graph.nodes), default=0)
    shapes = np.zeros((n, width))
    for node in graph.nodes:
        types[node.id, node.op_type] = 1.0
        for j, s in enumerate(node.output_shape):
            shapes[node.id, j] = float(s)
    degrees = []
    succ, pred = neighbors_reference(graph)
    for lists in (pred, succ):
        values = [len(x) for x in lists]
        col = {d: j for j, d in enumerate(sorted(set(values)))}
        out = np.zeros((n, len(col)))
        for v, d in enumerate(values):
            out[v, col[d]] = 1.0
        degrees.append(out)
    balls, ecc = ball_sizes(graph)
    fractal = np.array(
        [fit_slope_reference(balls[1 : e + 1, v]) for v, e in enumerate(ecc.tolist())]
    ).reshape(-1, 1)
    rank = topo_sort_reference(graph)[1]
    pos = np.array(
        [positional_encoding_reference(rank[v], cfg) for v in range(n)]
    ).reshape(n, cfg.d_pos)
    return np.hstack([types, shapes, *degrees, fractal, pos])


def fractal_dimension_oracle(graph: CompGraph, v: int) -> float:
    """Independent fractal-dimension oracle: Floyd-Warshall distances plus
    a polyfit regression instead of BFS plus explicit covariance sums."""
    n = graph.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in graph.edges:
        dist[a, b] = 1.0
        dist[b, a] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    reach = [dist[v, u] for u in range(n) if u != v and np.isfinite(dist[v, u])]
    radii = sorted(set(reach))
    if len(radii) < 2:
        return 0.0
    counts = [sum(1 for d in reach if d <= r) for r in radii]
    slope = np.polyfit(np.log(radii), np.log(counts), 1)[0]
    return float(slope)


def pooled_adjacency_oracle(assign, adjacency) -> np.ndarray:
    """Brute-force cluster-pair scan for the coarse adjacency."""
    k = assign.num_clusters
    members = [np.nonzero(assign.membership == c)[0] for c in range(k)]
    out = np.zeros((k, k))
    a = np.asarray(adjacency)
    for i in range(k):
        for j in range(k):
            if i != j and a[np.ix_(members[i], members[j])].any():
                out[i, j] = 1.0
    return out


def one_hot(assign) -> np.ndarray:
    """Dense |V| x k membership matrix of an assignment."""
    m = np.zeros((len(assign.membership), assign.num_clusters))
    m[np.arange(len(assign.membership)), assign.membership] = 1.0
    return m


def dense_from_edges(level) -> np.ndarray:
    """Dense 0/1 adjacency of an edge-list level (`num_nodes`, `src`, `dst`)."""
    a = np.zeros((level.num_nodes, level.num_nodes))
    a[level.src, level.dst] = 1.0
    return a


def level_from_dense(a):
    """The edge-list level of a dense 0/1 adjacency (row-major order)."""
    src, dst = np.nonzero(np.asarray(a))
    return PooledGraph(len(a), src, dst)


def dense_normalized(a) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the row sums of A + I, densely."""
    a_hat = np.asarray(a, dtype=np.float64) + np.eye(len(a))
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return d_inv_sqrt[:, None] * a_hat * d_inv_sqrt[None, :]


def edge_array(pairs) -> np.ndarray:
    """An (E, 2) intp array of (src, dst) rows from pairs in any iterable."""
    return np.array(list(pairs), dtype=np.intp).reshape(-1, 2)


def edge_pairs(edges: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (src, dst) rows of an (E, 2) edge array as a tuple of pairs."""
    return tuple(map(tuple, edges.tolist()))


def retain_dominant_edges_reference(scores) -> tuple[tuple[int, int], ...]:
    """Per-edge loop oracle for `retain_dominant_edges`: each node keeps its
    highest-scoring incident edge, ties to the smaller (src, dst)."""
    best: dict[int, tuple[float, tuple[int, int]]] = {}
    for edge, s in zip(scores.edges, scores.tensor.data[:, 0]):
        s = float(s)
        for node in edge:
            cur = best.get(node)
            if cur is None or s > cur[0] or (s == cur[0] and edge < cur[1]):
                best[node] = (s, edge)
    return tuple(sorted({e for _, e in best.values()}))


def add_at_reference(idx, rows, num_rows: int) -> np.ndarray:
    """Row sums by index with sequential `np.add.at`: out[idx[j]] += rows[j]."""
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, np.asarray(idx, dtype=np.intp), rows)
    return out


def scatter_add_rows_add_at(tape, a, idx, num_rows, passes=None):
    """`Tape.scatter_add_rows` as it was before the pass kernel."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(add_at_reference(idx, a.data, num_rows))
    return tape._record(out, (a,), lambda g: (g[idx],))


def gather_rows_add_at(tape, a, idx):
    """`Tape.gather_rows` with the `np.add.at` backward it had before."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])
    return tape._record(out, (a,), lambda g: (add_at_reference(idx, g, a.shape[0]),))


def dense_unfused(tape, a, w, bias=None, *, relu=False, keep=None, rate=0.0):
    """`Tape.dense` as the entries it replaced: matmul, add_bias, then relu,
    relu times the float dropout mask keep / (1 - rate) as one entry, or a
    mul by that mask without relu."""
    h = tape.matmul(a, w)
    if bias is not None:
        h = tape.add_bias(h, bias)
    if keep is None:
        return tape.relu(h) if relu else h
    keep = keep.astype(np.float64) / (1.0 - rate)
    return tape.relu(h, keep) if relu else tape.mul(h, Tensor(keep))


def components_reference(n: int, pairs) -> tuple[np.ndarray, int]:
    """Per-pair union-find oracle for `graph.components`: the smaller root
    stays root, and ids follow the ascending minimum member."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in pairs:
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    roots, membership = np.unique([find(v) for v in range(n)], return_inverse=True)
    return membership.astype(np.intp), len(roots)


def colocate_membership_reference(graph: CompGraph) -> list[int]:
    """Co-location membership from a scan in topological order: v and its
    only successor w pair up when v is w's only predecessor, and the pairs'
    components, numbered by minimum member, are the co-location sets."""
    succ, pred = neighbors_reference(graph)
    pairs = (
        (v, succ[v][0])
        for v in topo_sort_reference(graph)[0]
        if len(succ[v]) == 1 and len(pred[succ[v][0]]) == 1
    )
    return components_reference(graph.num_nodes, pairs)[0].tolist()


def colocate_reference(graph: CompGraph) -> tuple[CompGraph, list[int]]:
    """Co-location folded group by group: the membership of
    `colocate_membership_reference`, each group's rounded-mean op type
    (ties round down) and the shape of its member of highest topological
    rank, and the coarse edges from a set of group pairs."""
    membership = colocate_membership_reference(graph)
    groups: list[list[int]] = [[] for _ in range(max(membership, default=-1) + 1)]
    for v, c in enumerate(membership):
        groups[c].append(v)
    rank = topo_sort_reference(graph)[1]
    nodes = []
    for i, group in enumerate(groups):
        base, rem = divmod(sum(graph.nodes[v].op_type for v in group), len(group))
        op_type = base + 1 if 2 * rem > len(group) else base
        last = max(group, key=lambda v: rank[v])
        nodes.append(OpNode(i, op_type, graph.nodes[last].output_shape))
    edges = sorted(
        {(membership[u], membership[v]) for u, v in graph.edges}
        - {(c, c) for c in range(len(groups))}
    )
    return CompGraph(tuple(nodes), tuple(edges), graph.num_op_types), membership


def neighbors_reference(graph: CompGraph):
    """Successors and predecessors of every node as tuples, in edge order,
    from one pass over the edge pairs."""
    succ: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    pred: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for u, v in graph.edges:
        succ[u].append(v)
        pred[v].append(u)
    return tuple(map(tuple, succ)), tuple(map(tuple, pred))


def undirected_neighbors_reference(graph: CompGraph) -> tuple[tuple[int, ...], ...]:
    """Each node's successors, then its predecessors."""
    return tuple(s + p for s, p in zip(*neighbors_reference(graph)))


def topo_sort_reference(graph: CompGraph):
    """Kahn's algorithm with a min-id heap over the tuple neighbours: the
    order and the rank (node id -> position) as tuples."""
    n = graph.num_nodes
    succ, pred = neighbors_reference(graph)
    indeg = [len(p) for p in pred]
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
        raise CycleDetected([])
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    return tuple(order), tuple(rank)


def _json_int(value):
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def load_graph_reference(path) -> CompGraph:
    """`load_graph` as one OpNode per node with every value checked as a
    JSON integer, the nodes sorted by id, the overflow check in file order,
    then `validate`."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        nodes = [
            OpNode(_json_int(n["id"]), _json_int(n["op_type"]),
                   tuple(map(_json_int, n["output_shape"])))
            for n in data["nodes"]
        ]
        edges = []
        for edge in data["edges"]:
            if len(edge) != 2:
                raise ValueError(f"{edge!r} is not a pair")
            edges.append(tuple(map(_json_int, edge)))
        num_op_types = _json_int(data["num_op_types"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidNode(f"malformed graph file {path}: {exc}") from exc
    for node in nodes:
        try:
            volume(node.output_shape)
        except OverflowError:
            raise ValueError(
                f"graph file {path}: node {node.id} output_shape volume overflows float64"
            ) from None
    g = CompGraph(sorted(nodes, key=lambda node: node.id), edges, num_op_types)
    validate(g)
    return g


def node_table_rows_reference(graph: CompGraph) -> tuple[tuple, ...]:
    """The simulator's node table rows from a loop over the reference order
    and tuple neighbours: (v, op type, pred, volume) with a sole
    predecessor and its volume, or the predecessor tuple and None."""
    pred = neighbors_reference(graph)[1]
    nodes = graph.nodes
    rows = []
    for v in topo_sort_reference(graph)[0]:
        if len(pred[v]) == 1:
            (u,) = pred[v]
            rows.append((v, nodes[v].op_type, u, volume(nodes[u].output_shape)))
        else:
            rows.append((v, nodes[v].op_type, pred[v], None))
    return tuple(rows)


def level_table_reference(graph: CompGraph, depths: np.ndarray, count: int):
    """The simulator's level table arrays built from the tuple neighbours
    and per-node volumes, as (order, op types, src, dst, volumes, heads,
    node bounds, edge bounds)."""
    pred = neighbors_reference(graph)[1]
    n = graph.num_nodes
    order = np.argsort(depths, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    fan_in = np.array([len(p) for p in pred], dtype=np.intp)
    src = np.array([u for p in pred for u in p], dtype=np.intp)
    dst = np.repeat(position, fan_in)
    by_dst = np.argsort(dst, kind="stable")
    src, dst = src[by_dst], dst[by_dst]
    heads = np.searchsorted(dst, np.arange(n + 1))
    nodes = np.searchsorted(depths[order], np.arange(count + 1))
    vol = np.array([volume(node.output_shape) for node in graph.nodes], dtype=np.float64)
    ops = np.array([node.op_type for node in graph.nodes], dtype=np.intp)
    return (order, ops[order], position[src], dst, vol[src].reshape(-1), heads,
            tuple(nodes.tolist()), tuple(heads[nodes].tolist()))


def depths_reference(graph: CompGraph) -> np.ndarray:
    """Each node's longest path from a source, in edges, by relaxing the
    edge pairs in reference topological order."""
    rank = topo_sort_reference(graph)[1]
    depth = [0] * graph.num_nodes
    for u, v in sorted(graph.edges, key=lambda e: rank[e[0]]):
        depth[v] = max(depth[v], depth[u] + 1)
    return np.array(depth, dtype=np.intp)


def pooled_level_reference(graph: CompGraph) -> PooledGraph:
    """`PooledGraph.of` from the sorted edge pairs."""
    pairs = np.array(sorted(graph.edges), dtype=np.intp).reshape(-1, 2)
    return PooledGraph(graph.num_nodes, pairs[:, 0], pairs[:, 1])


def validate_reference(graph: CompGraph) -> None:
    """`validate` as one node-by-node, then edge-by-edge scan, raising at
    the first fault; its id message lists every id."""
    n = graph.num_nodes
    ids = sorted(node.id for node in graph.nodes)
    if ids != list(range(n)):
        raise InvalidNode(f"node ids must be exactly 0..{n - 1}, got {ids}")
    for pos, node in enumerate(graph.nodes):
        if node.id != pos:
            raise InvalidNode(
                f"node at position {pos} has id {node.id}: nodes must be in id order"
            )
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
    graph.topo  # raises CycleDetected on cyclic input


class NanWorkspace(Workspace):
    """A workspace whose every lent array starts as 0xFF bytes (NaN as a
    float, 255 as a bool), and whose buffers turn NaN as soon as they are
    given back and after a reset, so that reading a lent array before
    writing it, or after giving it back, shows in the result."""

    def lend(self, shape, dtype=np.float64):
        out = super().lend(shape, dtype)
        if out is not None:
            out.view(np.uint8).fill(0xFF)
        return out

    def give(self, *arrays) -> None:
        for a in arrays:
            if a is not None and any(a.base is buf for buf in self.buffers):
                a.base.fill(np.nan)
        super().give(*arrays)

    def reset(self) -> None:
        super().reset()
        for buf in self.buffers:
            buf.fill(np.nan)
