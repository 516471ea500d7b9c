"""Shared test oracles: finite differences and independent reimplementations."""

from __future__ import annotations

import itertools

import numpy as np

from dagplace.autograd import Tensor
from dagplace.graph import CompGraph, volume
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


def ball_sizes_reference(graph: CompGraph, v: int) -> np.ndarray:
    """N(v, r) for r = 1, 2, ..., the eccentricity of v: the number of other
    nodes within r undirected hops, from one level-by-level BFS."""
    nbrs = graph.undirected_neighbors
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
    counts = ball_sizes_reference(graph, v)
    # BFS levels are contiguous, so the distinct distances are 1..len(counts)
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
    succ, pred = graph.neighbors.succ, graph.neighbors.pred
    pairs = (
        (v, succ[v][0])
        for v in graph.plan.topo.order
        if len(succ[v]) == 1 and len(pred[succ[v][0]]) == 1
    )
    return components_reference(graph.num_nodes, pairs)[0].tolist()
