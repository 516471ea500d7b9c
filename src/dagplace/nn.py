"""Small MLP building blocks shared by the encoder, edge scorer, and placer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tape, Tensor, parameter


@dataclass
class Mlp:
    """Linear layers with ReLU between consecutive layers; linear output."""

    weights: list[Tensor]
    biases: list[Tensor]

    def parameters(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_mlp(rng: np.random.Generator, widths: list[int]) -> Mlp:
    """widths = [in, hidden..., out]; biases start at zero."""
    weights = [
        parameter(glorot(rng, widths[i], widths[i + 1]))
        for i in range(len(widths) - 1)
    ]
    biases = [parameter(np.zeros((1, w))) for w in widths[1:]]
    return Mlp(weights, biases)


def mlp_forward(tape: Tape, x: Tensor, mlp: Mlp) -> Tensor:
    h = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        h = tape.dense(h, w, b, relu=i < last)
    return h


def keep_mask(shape, rate: float, rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted dropout's bool mask, True where an entry is kept, from one
    draw per entry; None (no dropout) when rate is 0 or no generator is
    given. Kept entries are scaled by 1 / (1 - rate) where it is applied."""
    if rate <= 0.0 or rng is None:
        return None
    return rng.random(shape) >= rate

