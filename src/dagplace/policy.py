"""Placement head: per-cluster device distributions, sampling, and lift-back."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autograd import Tape, Tensor
from .nn import Mlp, init_mlp, mlp_forward
from .partition import AssignMatrix


def init_placer(
    rng: np.random.Generator, d_in: int, hidden: int, num_devices: int
) -> Mlp:
    """Two hidden layers at the encoder width, then device logits."""
    return init_mlp(rng, [d_in, hidden, hidden, num_devices])


def device_distribution(tape: Tape, z_pooled: Tensor, placer: Mlp) -> Tensor:
    """Row-stochastic |V'| x |D| matrix: softmax over device logits per cluster."""
    return tape.softmax_rows(mlp_forward(tape, z_pooled, placer))


PROB_FLOOR = 1e-12


def log_prob_of(tape: Tape, dist: Tensor, placement: np.ndarray) -> Tensor:
    """Scalar log-probability of a placement under independent cluster draws.

    Picked probabilities are floored at PROB_FLOOR before the log.  A
    saturated softmax can underflow the recorded action's probability to
    an exact zero when the surrogate loss re-evaluates it under updated
    parameters; the floor keeps the loss finite and simply drops such
    terms from the gradient.  At or above the floor the value and the
    gradient are exact.
    """
    n, d = dist.shape
    mask = np.zeros((n, d), dist.data.dtype)
    mask[np.arange(n), placement] = 1.0
    ones = np.ones((d, 1), dist.data.dtype)
    picked = tape.matmul(tape.mul(dist, Tensor(mask)), Tensor(ones))
    return tape.sum(tape.log(tape.clip_min(picked, PROB_FLOOR)))


def sample_placement(
    tape: Tape, dist: Tensor, rng: np.random.Generator
) -> tuple[np.ndarray, Tensor]:
    """Draw one device per cluster; the returned log-prob stays on tape."""
    probs = dist.data
    draws = rng.random(probs.shape[0])
    cum = probs.cumsum(axis=1)
    placement = (draws[:, None] > cum).sum(axis=1).astype(np.intp)
    placement = np.minimum(placement, probs.shape[1] - 1)
    return placement, log_prob_of(tape, dist, placement)


def greedy_placement(dist_values: np.ndarray) -> np.ndarray:
    """Argmax device per cluster (ties take the lowest device id)."""
    return np.argmax(dist_values, axis=1).astype(np.intp)


def lift_placement(cluster_placement: np.ndarray, assign: AssignMatrix) -> np.ndarray:
    """Every node inherits the device of its cluster."""
    return np.asarray(cluster_placement, dtype=np.intp)[assign.membership]


def save_placement(assignments: np.ndarray, num_devices: int, path: str | Path) -> None:
    """Write one device id per node and the device names CPU, GPU, DEVICE2, ..."""
    names = ["CPU", "GPU"][:num_devices] + [f"DEVICE{i}" for i in range(2, num_devices)]
    data = {"assignments": [int(a) for a in assignments], "devices": names}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
