"""Deterministic heterogeneous-execution latency model.

Latency is the critical path under unbounded per-device parallelism: a node
starts once every predecessor has finished and its output has crossed the
device boundary (transfer cost scales with the producer's output volume),
and runs for its per-device compute cost. Also provides the exhaustive
optimal-placement search used as a verification oracle at small sizes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import CompGraph, TopoOrder, topo_sort


class MissingCost(Exception):
    pass


class NonPositiveLatency(Exception):
    pass


class TooLarge(Exception):
    pass


BRUTE_FORCE_LIMIT = 2**24  # max placements enumerated by brute_force_optimal


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


def volume(shape: tuple[int, ...]) -> float:
    """Tensor element count; empty shapes count as one unit."""
    return float(math.prod(shape)) if shape else 1.0


def simulate(
    graph: CompGraph,
    placement,
    cm: CostModel,
    order: TopoOrder | None = None,
) -> float:
    """Critical-path latency of the placed graph, in seconds.

    Pass a precomputed topological order to skip recomputing it in loops.
    """
    placement = np.asarray(placement, dtype=np.intp)
    if placement.shape != (graph.num_nodes,):
        raise ValueError(
            f"placement covers {placement.shape} nodes, graph has {graph.num_nodes}"
        )
    if order is None:
        order = topo_sort(graph)
    preds = graph.predecessors()
    finish = np.zeros(graph.num_nodes)
    latency = 0.0
    for v in order.order:
        d = int(placement[v])
        node = graph.nodes[v]
        if not (0 <= node.op_type < cm.num_op_types and 0 <= d < cm.num_devices):
            raise MissingCost(f"no cost for op_type {node.op_type} on device {d}")
        start = 0.0
        for u in preds[v]:
            arrival = finish[u] + cm.transfer[placement[u], d] * volume(
                graph.nodes[u].output_shape
            )
            if arrival > start:
                start = arrival
        finish[v] = start + cm.compute[node.op_type, d]
        if finish[v] > latency:
            latency = finish[v]
    return float(latency)


def reward(latency: float) -> float:
    """Inverse latency; higher is better."""
    if latency <= 0:
        raise NonPositiveLatency(f"latency must be positive, got {latency}")
    return 1.0 / latency


def speedup(base_latency: float, latency: float) -> float:
    """Percent improvement over a baseline latency."""
    if base_latency <= 0:
        raise NonPositiveLatency(f"baseline must be positive, got {base_latency}")
    return 100.0 * (base_latency - latency) / base_latency


def brute_force_optimal(
    graph: CompGraph, cm: CostModel, num_devices: int | None = None
) -> tuple[np.ndarray, float]:
    """Exhaustively search all placements; lexicographically smallest argmin.

    Guarded to num_devices**|V| <= 2**24 enumerated placements.
    """
    d = cm.num_devices if num_devices is None else num_devices
    n = graph.num_nodes
    if d**n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{d}**{n} placements exceed the enumeration guard")
    order = topo_sort(graph)
    best_placement: np.ndarray | None = None
    best_latency = np.inf
    for combo in itertools.product(range(d), repeat=n):
        lat = simulate(graph, np.asarray(combo, dtype=np.intp), cm, order)
        if lat < best_latency:
            best_latency = lat
            best_placement = np.asarray(combo, dtype=np.intp)
    assert best_placement is not None
    return best_placement, float(best_latency)
