"""Deterministic heterogeneous-execution latency model.

Latency is the critical path under unbounded per-device parallelism: a node
starts once every predecessor has finished and its output has crossed the
device boundary (transfer cost scales with the producer's output volume),
and runs for its per-device compute cost. Also provides the exhaustive
optimal-placement search used as a verification oracle at small sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CompGraph, LevelTable, NodeTable, SimulationPlan


class MissingCost(Exception):
    pass


class NonPositiveLatency(Exception):
    pass


class TooLarge(Exception):
    pass


BRUTE_FORCE_LIMIT = 2**24  # max placements enumerated by brute_force_optimal
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
    """Read a cost model JSON file: {"compute": [[...]], "transfer": [[...]]}."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return CostModel(np.asarray(data["compute"]), np.asarray(data["transfer"]))
    except (KeyError, TypeError, ValueError) as exc:
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
    _check_costs(graph.plan, placement[None], cm)
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
    plan = graph.plan
    _check_costs(plan, placements, cm)
    k, d = placements.shape[0], cm.num_devices
    by_node = np.ascontiguousarray(placements.T)  # row v: each placement's device of v
    pair_base = by_node * d  # row u: offset of u's device row in transfer.ravel()
    finish = np.zeros((n, k))
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        # row u: the cost of sending u's output between each device pair
        sent = cm.transfer.ravel() * np.array(plan.volumes)[:, None]
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


def _check_costs(plan: SimulationPlan, placements: np.ndarray, cm: CostModel) -> None:
    """Raise MissingCost where a placement-by-placement sweep would first
    meet a node without a cost: the first placement that has one, at its
    first such node in topological order."""
    lo, hi = plan.op_range
    if placements.size == 0 or (
        lo >= 0
        and hi < cm.num_op_types
        and placements.min() >= 0
        and placements.max() < cm.num_devices
    ):
        return
    ops = np.array(plan.op_types, dtype=np.intp)
    bad = (placements < 0) | (placements >= cm.num_devices)
    bad |= (ops < 0) | (ops >= cm.num_op_types)
    row = int(np.argmax(bad.any(axis=1)))
    v = next(v for v in plan.topo.order if bad[row, v])
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


def brute_force_optimal(
    graph: CompGraph, cm: CostModel, num_devices: int | None = None
) -> tuple[np.ndarray, float]:
    """Exhaustively search all placements; lexicographically smallest argmin.

    A prefix tree over the topological order: position k has one finish
    time per choice of devices for positions 0..k, broadcast from its
    predecessors' with `simulate_many`'s float64 operations, so latencies
    (maxima over the sinks) equal `simulate`'s. A chunk fixes the leading
    positions' devices and spans at most SEARCH_CHUNK placements of the
    rest, in arrays every chunk reuses; equal minima go to the smallest
    rank sum(digit_v * d**(n-1-v)). Guarded to num_devices**|V| <= 2**24.
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
    plan = graph.plan
    probe = np.zeros((2, n), dtype=np.intp)  # the first placements with a missing cost
    probe[1, -1] = min(d - 1, cm.num_devices)
    _check_costs(plan, probe, cm)
    order, rank, preds, ops = plan.topo.order, plan.topo.rank, plan.preds, plan.op_types
    base = n - 1  # positions base.. vary inside a chunk, 0..base-1 are fixed
    while base and d ** (n - base + 1) <= SEARCH_CHUNK:
        base -= 1
    ranks = np.zeros(1, dtype=np.intp)  # node-id rank of each chunk-local placement
    for k in range(base, n):
        ranks = (np.arange(d)[:, None] * d ** (n - 1 - order[k]) + ranks).ravel()
    # finish times at positions k >= base as [own digit, digits base..k-1]
    finish = {k: np.empty((d, d ** (k - base))) for k in range(base, n)}
    room, sink = np.empty(ranks.size), [not succ for succ in graph.neighbors.succ]
    best, best_rank = np.inf, total
    with np.errstate(over="ignore"):  # an overflow is inf, as in Python floats
        sent = cm.transfer[:d, :d] * np.array(plan.volumes)[:, None, None]
        sent_f, comp_f = sent.tolist(), cm.compute[:, :d].tolist()
        for chunk in range(d**base):
            digit = [chunk // d**k % d for k in range(base)]
            fixed, lat = [], 0.0
            for v, e in zip(order, digit):
                arrivals = [fixed[rank[u]] + sent_f[u][digit[rank[u]]][e] for u in preds[v]]
                fixed.append(max([0.0] + arrivals) + comp_f[ops[v]][e])
                lat = max(lat, fixed[-1]) if sink[v] else lat
            for k in range(base, n):
                v, start = order[k], finish[k]
                start.fill(0.0)
                for j in map(rank.__getitem__, preds[v]):
                    u = order[j]
                    if j < base:
                        np.maximum(start, (sent[u, digit[j]] + fixed[j])[:, None], out=start)
                        continue
                    arrival = room[: d * finish[j].size].reshape(d, d, -1)  # [own, pred, ...]
                    np.add(sent[u].T[:, :, None], finish[j].reshape(1, d, -1), out=arrival)
                    block = start.reshape(d, -1, arrival[0].size)
                    np.maximum(block, arrival.reshape(d, 1, -1), out=block)
                start += cm.compute[ops[v], :d, None]
                if sink[v]:
                    wide = start.reshape(-1, np.size(lat))
                    lat = np.maximum(wide, lat, out=wide).ravel()
            low = lat.min()
            if low <= best:  # the smallest rank among this chunk's minima
                r = sum(e * d ** (n - 1 - v) for v, e in zip(order, digit))
                r += int(ranks.min(initial=total, where=lat == low))
                best, best_rank = min((best, best_rank), (low, r))
    return np.array(np.unravel_index(best_rank, (d,) * n), dtype=np.intp), float(best)
