"""Deterministic heterogeneous-execution latency model.

Latency is the critical path under unbounded per-device parallelism: a node
starts once every predecessor has finished and its output has crossed the
device boundary (transfer cost scales with the producer's output volume),
and runs for its per-device compute cost. Also provides the
earliest-finish-time heuristic and the exact optimal-placement search that
starts from it, the verification oracle at small sizes. A latency is the
largest of the graph's weakly connected components' latencies, so the
search takes one component at a time under a floor, the largest component
optimum found so far, and covers the sum of d**|V_c| placements over the
components; its guard still counts all d**|V| placements of the graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CompGraph, LevelTable, NodeTable, components


class MissingCost(Exception):
    pass


class NonPositiveLatency(Exception):
    pass


class TooLarge(Exception):
    pass


BRUTE_FORCE_LIMIT = 2**24  # max placements brute_force_optimal searches
# most placements brute_force_optimal enumerates per chunk: its arrays
# stay near 1 MB whatever the graph, up to the guard's 24 nodes
SEARCH_CHUNK = 2**15


@dataclass
class CostModel:
    """compute[t, d]: seconds for op-type t on device d;
    transfer[a, b]: seconds per unit of tensor volume moved from a to b."""

    compute: np.ndarray
    transfer: np.ndarray

    def __post_init__(self):
        self.compute = np.asarray(self.compute, dtype=np.float64)
        self.transfer = np.asarray(self.transfer, dtype=np.float64)
        if self.compute.ndim != 2 or self.transfer.ndim != 2:
            raise ValueError("compute and transfer must be 2-D")
        if self.transfer.shape[0] != self.transfer.shape[1]:
            raise ValueError("transfer must be square")
        if self.compute.shape[1] != self.transfer.shape[0]:
            raise ValueError("compute columns must match device count")
        if not (np.isfinite(self.compute).all() and np.isfinite(self.transfer).all()):
            raise ValueError("costs must be finite")
        if (self.compute < 0).any() or (self.transfer < 0).any():
            raise ValueError("costs must be non-negative")
        if np.diag(self.transfer).any():
            raise ValueError("same-device transfer cost must be zero")

    @property
    def num_devices(self) -> int:
        return self.transfer.shape[0]

    @property
    def num_op_types(self) -> int:
        return self.compute.shape[0]


def load_cost_model(path: str | Path) -> CostModel:
    """Read a cost model JSON file: {"compute": [[...]], "transfer": [[...]]}.
    Every entry must be a JSON number."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        tables = data["compute"], data["transfer"]
        for name, table in zip(("compute", "transfer"), tables):
            entries = list(itertools.chain.from_iterable(table))  # rows of numbers
            if set(map(type, entries)) - {int, float}:
                bad = next(x for x in entries if type(x) not in (int, float))
                raise ValueError(f"{name} entry {bad!r} is not a number")
        return CostModel(*map(np.asarray, tables))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed cost model file {path}: {exc}") from exc


def save_cost_model(cm: CostModel, path: str | Path) -> None:
    data = {"compute": cm.compute.tolist(), "transfer": cm.transfer.tolist()}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def simulate(graph: CompGraph, placement, cm: CostModel) -> float:
    """Critical-path latency of the placed graph, in seconds.

    Two sweeps give the same latency, bit for bit, from the same float64
    multiplies, adds and maxima. A shallow graph (`CompGraph.shallow`: its
    levels hold on average at least LEVEL_SWEEP_WIDTH nodes plus edges) is
    swept one level at a time in numpy (`CompGraph.levels`); any other
    graph node by node in Python lists (`CompGraph.node_table`), where a
    level's numpy calls cost more than its few nodes' scalar steps, and
    where a node with one predecessor, most nodes of a network's graph,
    takes an add, a multiply and an add with no maximum.
    `scripts/simulate_rates.py` times `simulate`: on random_dag(3000), 7
    levels, the level sweep was about 7x faster than the scalar one; on
    inception_like(1000), 712 levels, the node-by-node sweep takes about
    125 us, against 190 us with a maximum at every node.
    """
    placement = np.asarray(placement, dtype=np.intp)
    if placement.shape != (graph.num_nodes,):
        raise ValueError(
            f"placement covers {placement.shape} nodes, graph has {graph.num_nodes}"
        )
    _check_costs(graph, placement[None], cm)
    if graph.shallow:
        return _level_sweep(graph.levels, placement, cm)
    return _scalar_sweep(graph.node_table, placement, cm)


def _scalar_sweep(table: NodeTable, placement: np.ndarray, cm: CostModel) -> float:
    """`simulate` node by node in topological order, in Python floats.
    Arrival times sum non-negative terms from +0.0 and volumes are finite,
    so an arrival is never -0.0 or NaN and max(0.0, arrival) is the arrival
    itself: a node with one predecessor starts at its arrival. The latency
    is the largest finish time, a sink's."""
    p = placement.tolist()
    compute = cm.compute.tolist()
    transfer = cm.transfer.tolist()
    volumes = table.volumes
    finish = [0.0] * len(p)
    for v, op, u, w in table.rows:
        d = p[v]
        if w is not None:  # u is v's only predecessor, w its volume
            finish[v] = finish[u] + transfer[p[u]][d] * w + compute[op][d]
        else:  # u is v's predecessor tuple
            start = 0.0
            for x in u:
                arrival = finish[x] + transfer[p[x]][d] * volumes[x]
                if arrival > start:
                    start = arrival
            finish[v] = start + compute[op][d]
    return max(map(finish.__getitem__, table.sinks), default=0.0)


def _level_sweep(table: LevelTable, placement: np.ndarray, cm: CostModel) -> float:
    """`simulate` one level at a time: every edge's transfer time and every
    node's compute time in one array op each, then per level one gather of
    the sources' finish times, one add and one maximum per destination.
    Arrival times are never negative and never NaN, so these maxima equal
    the scalar sweep's comparisons with a start of 0.0."""
    d = cm.num_devices
    p = placement.take(table.order)
    comp = cm.compute.take(table.op_types * d + p)  # flat index of [op, device]
    pair = p.take(table.src)
    pair *= d
    pair += p.take(table.dst)  # flat index of [source device, destination device]
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        sent = cm.transfer.take(pair)
        sent *= table.volumes
        finish = comp + 0.0  # level 0: start 0.0, and 0.0 + -0.0 is 0.0
        src, heads = table.src, table.heads
        nodes, edges = table.node_bounds, table.edge_bounds
        for lo, hi, a, b in zip(nodes[1:-1], nodes[2:], edges[1:-1], edges[2:]):
            arrival = sent[a:b]  # becomes each in-edge's arrival time
            arrival += finish.take(src[a:b])
            # maxima over the in-edges of lo..hi-1: the runs from each head,
            # the last one up to b
            start = np.maximum.reduceat(sent[:b], heads[lo:hi])
            np.add(start, comp[lo:hi], out=finish[lo:hi])
    return float(finish.max(initial=0.0))


def simulate_many(graph: CompGraph, placements, cm: CostModel) -> np.ndarray:
    """Critical-path latencies of K placements given as a [K, n] array.

    One sweep of `CompGraph.node_table`, vectorised across the K
    placements, with the same float64 operations in the same order as
    `simulate`, so each latency equals `simulate`'s exactly: a node with one
    predecessor starts at its arrival, any other at the maximum of 0.0 and
    its arrivals.
    """
    placements = np.asarray(placements, dtype=np.intp)
    n = graph.num_nodes
    if placements.ndim != 2 or placements.shape[1] != n:
        raise ValueError(f"placements have shape {placements.shape}, expected (K, {n})")
    _check_costs(graph, placements, cm)
    k, d = placements.shape[0], cm.num_devices
    by_node = np.ascontiguousarray(placements.T)  # row v: each placement's device of v
    pair_base = by_node * d  # row u: offset of u's device row in transfer.ravel()
    finish = np.zeros((n, k))
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        # row u: the cost of sending u's output between each device pair
        sent = cm.transfer.ravel() * graph.volumes[:, None]
        for v, op, u, w in graph.node_table.rows:
            dv = by_node[v]
            if w is not None:  # u is v's only predecessor: v starts at its arrival
                start = sent[u].take(pair_base[u] + dv)
                start += finish[u]
            else:  # u is v's predecessor tuple
                start = np.zeros(k)
                for x in u:
                    arrival = sent[x].take(pair_base[x] + dv)
                    arrival += finish[x]
                    np.maximum(start, arrival, out=start)
            np.add(start, cm.compute[op].take(dv), out=finish[v])
    return finish.max(axis=0, initial=0.0)


def _check_costs(graph: CompGraph, placements: np.ndarray, cm: CostModel) -> None:
    """Raise MissingCost where a placement-by-placement sweep would first
    meet a node without a cost: the first placement that has one, at its
    first such node in topological order."""
    lo, hi = graph.op_range
    if placements.size == 0 or (
        lo >= 0
        and hi < cm.num_op_types
        and placements.min() >= 0
        and placements.max() < cm.num_devices
    ):
        return
    ops = graph.op_types
    bad = (placements < 0) | (placements >= cm.num_devices)
    bad |= (ops < 0) | (ops >= cm.num_op_types)
    row = int(np.argmax(bad.any(axis=1)))
    v = next(v for v in graph.topo.nodes if bad[row, v])
    raise MissingCost(f"no cost for op_type {ops[v]} on device {placements[row, v]}")


def reward(latency: float) -> float:
    """Inverse latency; higher is better."""
    if latency <= 0:
        raise NonPositiveLatency(f"latency must be positive, got {latency}")
    return 1.0 / latency


def speedup(base_latency: float, latency: float) -> float:
    """Percent improvement over a baseline latency."""
    if base_latency <= 0:
        raise NonPositiveLatency(f"baseline must be positive, got {base_latency}")
    # divide first: the scaled difference of two finite latencies may overflow
    return 100.0 * ((base_latency - latency) / base_latency)


def eft_placement(
    graph: CompGraph, cm: CostModel, num_devices: int | None = None
) -> tuple[np.ndarray, float]:
    """Earliest-finish-time placement and its latency: one pass in
    topological order, each node on the device where it finishes first
    given its predecessors' devices, the lowest device id on ties. Finish
    times take `simulate`'s float64 operations, and no finish time is above
    its successors', so the latency, the largest, is `simulate`'s. A
    missing cost raises the MissingCost of `brute_force_optimal`'s first
    placements scanned."""
    d = cm.num_devices if num_devices is None else num_devices
    if d < 1:
        raise ValueError(f"num_devices must be at least 1, got {d}")
    place, finish = _eft(graph, cm, d)
    return np.array(place, dtype=np.intp), max(finish, default=0.0)


def _eft(graph: CompGraph, cm: CostModel, d: int) -> tuple[list[int], list[float]]:
    """`eft_placement`'s device and finish time of every node; restricted
    to a weakly connected component, the pass over that component alone."""
    n, (preds, _, ops) = graph.num_nodes, graph.plan
    probe = np.zeros((2, n), dtype=np.intp)  # the first placements with a missing cost
    probe[1, -1:] = min(d - 1, cm.num_devices)
    _check_costs(graph, probe, cm)
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        sent = (cm.transfer[:d, :d] * graph.volumes[:, None, None]).tolist()
    comp = cm.compute[:, :d].tolist()
    finish, place = [0.0] * n, [0] * n
    for v in graph.topo.nodes:
        ends = [
            max([0.0] + [finish[u] + sent[u][place[u]][e] for u in preds[v]]) + c
            for e, c in enumerate(comp[ops[v]])
        ]
        finish[v] = min(ends)
        place[v] = ends.index(finish[v])
    return place, finish


def brute_force_optimal(
    graph: CompGraph, cm: CostModel, num_devices: int | None = None
) -> tuple[np.ndarray, float]:
    """Exact search with a bound; the lexicographically smallest argmin.

    A latency is the largest of the weakly connected components', so the
    search covers the sum of d**|V_c| placements, not d**|V|: each
    component, largest first, gets the smallest argmin of max(latency,
    floor), the floor being the largest component optimum so far, and is
    searched again if a later component raises the floor. Each then holds
    its smallest placement of latency at most the optimum, and together
    they are the whole graph's smallest argmin. One component: floor 0.0.

    Within a component: branch and bound over a prefix tree in topological
    order, from the `eft_placement` incumbent restricted to it. A prefix's
    bound is the largest finish time of a placed node plus its tail, the
    longest path after it with every op on its cheapest device and no
    transfers; the running latency and the bound start at the floor. A
    prefix whose bound exceeds the best latency by more than the rounding
    of a sum along one path cannot hold a placement that ties it, and is
    dropped. Below a prefix that fixes the leading positions, a broadcast
    kernel scores the rest: position k has one finish time per choice of
    devices for the positions up to k, broadcast from its predecessors'
    with `simulate_many`'s float64 operations, so latencies (maxima over
    the sinks) equal `simulate`'s. Such a chunk spans at most SEARCH_CHUNK
    placements, in arrays every chunk reuses, and is split one position
    further while the split drops a child; equal minima go to the smallest
    rank sum(digit_v * d**(n-1-v)). When no bound prunes, every placement
    of every component is scored; guarded to num_devices**|V| <= 2**24.
    """
    d = cm.num_devices if num_devices is None else num_devices
    if d < 1:
        raise ValueError(f"num_devices must be at least 1, got {d}")
    n = graph.num_nodes
    total = d**n
    if total > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{d}**{n} placements exceed the enumeration guard")
    if n == 0:
        return np.zeros(0, dtype=np.intp), 0.0  # the empty placement
    eft, eft_finish = _eft(graph, cm, d)  # also the missing-cost probe
    order, (preds, succ, ops) = graph.topo.nodes, graph.plan
    ids, count = components(n, graph.src, graph.dst)
    parts: list[list[int]] = [[] for _ in range(count)]  # in topological order
    for v, c in zip(order, ids.take(order).tolist()):
        parts[c].append(v)
    parts.sort(key=len, reverse=True)
    pos = {v: k for part in parts for k, v in enumerate(part)}  # in its component
    weight, digits = [d ** (n - 1 - v) for v in range(n)], np.arange(d)[:, None]
    cheap, tail = cm.compute[:, :d].min(axis=1).tolist(), [0.0] * n
    for v in reversed(order):
        tail[v] = max([cheap[ops[s]] + tail[s] for s in succ[v]], default=0.0)
    span = 1  # positions a chunk varies
    while span < len(parts[0]) and d ** (span + 1) <= SEARCH_CHUNK:
        span += 1
    # finish times of a chunk's i-th position as [own digit, earlier digits]
    bufs = [np.empty(d ** (i + 1)).reshape(d, -1) for i in range(span)]
    room, sink = np.empty(d**span), [not s for s in succ]

    def search(part: list, floor: float) -> tuple[float, int]:
        """The smallest argmin of max(latency, floor) over one component's
        placements: that maximum and the placement's rank."""
        m = len(part)
        best = max(floor, max(map(eft_finish.__getitem__, part)))
        best_rank = sum(eft[v] * weight[v] for v in part)
        margin = 1 + m * 2.0**-50  # above the rounding of two sums of m terms
        base = max(0, m - span)  # positions base.. vary inside a chunk
        ranks = np.zeros(1, dtype=np.intp)  # node-id rank of each chunk-local placement
        for v in part[base:]:
            ranks = (digits * weight[v] + ranks).ravel()

        def chunk(b: int, digit: list, fixed: list, lat: float, r: int) -> None:
            nonlocal best, best_rank
            for k in range(b, m):
                v, start = part[k], bufs[k - b]
                start.fill(0.0)
                for j in map(pos.__getitem__, preds[v]):
                    u = part[j]
                    if j < b:
                        np.maximum(start, (sent[u, digit[j]] + fixed[j])[:, None], out=start)
                        continue
                    at = bufs[j - b]
                    arrival = room[: d * at.size].reshape(d, d, -1)  # [own, pred, ...]
                    np.add(sent[u].T[:, :, None], at.reshape(1, d, -1), out=arrival)
                    block = start.reshape(d, -1, arrival[0].size)
                    np.maximum(block, arrival.reshape(d, 1, -1), out=block)
                start += cm.compute[ops[v], :d, None]
                if sink[v]:
                    wide = start.reshape(-1, np.size(lat))
                    lat = np.maximum(wide, lat, out=wide).ravel()
            low = lat.min()
            if low <= best:  # the smallest rank among this chunk's minima
                r += int(ranks[:: d ** (b - base)].min(initial=total, where=lat == low))
                best, best_rank = min((best, best_rank), (low, r))

        def descend(k: int, digit: list, fixed: list, lat: float, bound: float, r: int) -> None:
            nonlocal best, best_rank
            if bound > best * margin:
                return
            if k == m:  # a whole placement
                best, best_rank = min((best, best_rank), (lat, r))
                return
            v, kids = part[k], []
            for e, c in enumerate(comp_f[ops[v]]):
                f = max([0.0] + [fixed[pos[u]] + sent_f[u][digit[pos[u]]][e]
                                 for u in preds[v]]) + c
                kids.append((e, f, max(bound, f + tail[v])))
            if k >= base and all(b <= best * margin for _, _, b in kids):
                return chunk(k, digit, fixed, lat, r)
            for e, f, b in kids:
                descend(k + 1, digit + [e], fixed + [f], max(lat, f) if sink[v] else lat, b,
                        r + e * weight[v])

        descend(0, [], [], floor, floor, 0)
        return best, best_rank

    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        sent = cm.transfer[:d, :d] * graph.volumes[:, None, None]
        sent_f, comp_f = sent.tolist(), cm.compute[:, :d].tolist()
        found, floor = [], 0.0
        for part in parts:
            found.append(search(part, floor))
            floor = found[-1][0]
        rank = sum(r if low == floor else search(part, floor)[1]
                   for part, (low, r) in zip(parts, found))
    return np.array(np.unravel_index(rank, (d,) * n), dtype=np.intp), float(floor)
