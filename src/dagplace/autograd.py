"""Minimal reverse-mode autodiff over dense 2-D float64 matrices.

Forward calls go through a Tape, which records one entry per primitive and
replays them in reverse on backward(). Only the primitives the encoder,
edge scorer, and placement head need are provided; everything is 2-D. The
one sparse operand is a constant `SparseMatrix`, applied by `Tape.spmm`.

Gradients are kept only on the gradient path: a primitive's backward skips
inputs that do not require a gradient, only tensors created with
`requires_grad` (parameters) hold a buffer up front, and an intermediate's
gradient lives from the moment backward reaches it until its entry is
replayed. Entries store no derived arrays (relu and clip_min rebuild their
0/1 mask in backward), and backward drops each entry once it has replayed.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatch(Exception):
    pass


class NonScalarLoss(Exception):
    pass


class Tensor:
    """A (rows, cols) float64 value and its gradient.

    `grad` is a same-shape buffer for tensors created with `requires_grad`
    and None otherwise until backward reaches the tensor."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


class SparseMatrix:
    """A constant n x n matrix: its diagonal plus distinct off-diagonal
    entries weights[e] at (rows[e], cols[e]).

    Products are segment sums. The entries are split into passes in which
    no target row repeats, so each pass is one fancy-index `+=` (which adds
    a repeated index only once); the passes for the product and for its
    transpose are built here, once.
    """

    def __init__(
        self, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ):
        self.diag = np.asarray(diag, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        weights = np.asarray(weights, dtype=np.float64)
        self._passes = _passes(rows, cols, weights)
        self._transposed_passes = _passes(cols, rows, weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))

    @property
    def nbytes(self) -> int:
        passes = self._passes + self._transposed_passes
        return self.diag.nbytes + sum(a.nbytes for p in passes for a in p)

    def apply(self, h: np.ndarray, transpose: bool = False) -> np.ndarray:
        """self @ h, or self.T @ h."""
        out = self.diag[:, None] * h
        passes = self._transposed_passes if transpose else self._passes
        for target, source, weight in passes:
            out[target] += weight * h[source]
        return out


def _passes(target: np.ndarray, source: np.ndarray, weights: np.ndarray):
    """Group entries into (target, source, weight column) passes with unique
    targets: pass k holds every target's k-th entry in input order."""
    if not len(target):
        return []
    by_target = np.argsort(target, kind="stable")
    sorted_target = target[by_target]
    first = np.searchsorted(sorted_target, sorted_target)
    rank = np.empty(len(target), dtype=np.intp)
    rank[by_target] = np.arange(len(target)) - first
    by_rank = np.argsort(rank, kind="stable")
    target, source, weights = target[by_rank], source[by_rank], weights[by_rank, None]
    ends = np.cumsum(np.bincount(rank)).tolist()
    return [
        (target[a:b], source[a:b], weights[a:b])
        for a, b in zip([0] + ends[:-1], ends)
    ]


class Tape:
    """Records primitive applications and replays them in reverse.

    Each entry is (output, inputs, backward_fn); backward_fn maps the
    upstream gradient to one gradient array per input, or None for an input
    that does not require one. One tape serves one forward/backward pair
    and is single-threaded. backward consumes the tape: it pops each entry
    as it replays it, so every intermediate is released as soon as its
    gradient has been handed on, and the tape is empty afterwards.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], back) -> Tensor:
        if any(t.requires_grad for t in inputs):
            out.requires_grad = True
            self._entries.append((out, inputs, back))
        return out

    # primitives ---------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
        out = Tensor(a.data @ b.data)

        def back(g):
            return (
                g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None,
            )

        return self._record(out, (a, b), back)

    def spmm(self, m: SparseMatrix, a: Tensor) -> Tensor:
        """m @ a for a constant sparse m; the backward applies m.T."""
        if m.shape[1] != a.shape[0]:
            raise ShapeMismatch(f"spmm {m.shape} @ {a.shape}")
        out = Tensor(m.apply(a.data))
        return self._record(out, (a,), lambda g: (m.apply(g, transpose=True),))

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatch(f"add {a.shape} + {b.shape}")
        out = Tensor(a.data + b.data)
        return self._record(out, (a, b), lambda g: (g, g))

    def add_bias(self, a: Tensor, bias: Tensor) -> Tensor:
        """Add a 1 x d row vector to every row of an n x d matrix."""
        if bias.shape != (1, a.shape[1]):
            raise ShapeMismatch(f"add_bias {a.shape} + {bias.shape}")
        out = Tensor(a.data + bias.data)
        return self._record(out, (a, bias), lambda g: (g, g.sum(axis=0, keepdims=True)))

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeMismatch(f"mul {a.shape} * {b.shape}")
        out = Tensor(a.data * b.data)

        def back(g):
            return (
                g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None,
            )

        return self._record(out, (a, b), back)

    def scale(self, a: Tensor, c: float) -> Tensor:
        out = Tensor(a.data * c)
        return self._record(out, (a,), lambda g: (g * c,))

    def relu(self, a: Tensor) -> Tensor:
        out = Tensor(np.maximum(a.data, 0.0))
        return self._record(out, (a,), lambda g: (g * (out.data > 0.0),))

    def sigmoid(self, a: Tensor) -> Tensor:
        # split by sign so exp never overflows
        x = a.data
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        out = Tensor(y)
        return self._record(out, (a,), lambda g: (g * y * (1.0 - y),))

    def log(self, a: Tensor) -> Tensor:
        out = Tensor(np.log(a.data))
        return self._record(out, (a,), lambda g: (g / a.data,))

    def clip_min(self, a: Tensor, floor: float) -> Tensor:
        # entries at or above the floor keep an exact identity gradient
        out = Tensor(np.maximum(a.data, floor))
        return self._record(out, (a,), lambda g: (g * (a.data >= floor),))

    def softmax_rows(self, a: Tensor) -> Tensor:
        shifted = a.data - a.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)
        out = Tensor(y)

        def back(g):
            dot = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - dot),)

        return self._record(out, (a,), back)

    def gather_rows(self, a: Tensor, idx) -> Tensor:
        idx = np.asarray(idx, dtype=np.intp)
        out = Tensor(a.data[idx])

        def back(g):
            acc = np.zeros_like(a.data)
            np.add.at(acc, idx, g)
            return (acc,)

        return self._record(out, (a,), back)

    def scatter_add_rows(self, a: Tensor, idx, num_rows: int) -> Tensor:
        """out[i] = sum of rows j of `a` with idx[j] == i; out has num_rows rows."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.shape != (a.shape[0],):
            raise ShapeMismatch(f"scatter index length {idx.shape} for {a.shape}")
        acc = np.zeros((num_rows, a.shape[1]), dtype=np.float64)
        np.add.at(acc, idx, a.data)
        out = Tensor(acc)
        return self._record(out, (a,), lambda g: (g[idx],))

    def sum(self, a: Tensor) -> Tensor:
        out = Tensor([[a.data.sum()]])
        return self._record(out, (a,), lambda g: (np.full_like(a.data, g[0, 0]),))

    # backward -----------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d t into t.grad for every leaf that requires
        a gradient. Recorded outputs hand their gradient on and end with
        grad None; every gradient array belongs to one tensor only."""
        if loss.shape != (1, 1):
            raise NonScalarLoss(f"loss must be 1x1, got {loss.shape}")
        loss.grad = np.ones((1, 1))
        while self._entries:
            out, inputs, back = self._entries.pop()
            g, out.grad = out.grad, None
            if g is None:  # the loss does not depend on this output
                continue
            taken: list[np.ndarray] = []
            for t, tg in zip(inputs, back(g)):
                if not t.requires_grad:
                    continue
                if t.grad is not None:
                    t.grad += tg
                else:
                    # a backward may hand one array to several inputs
                    t.grad = tg.copy() if any(tg is x for x in taken) else tg
                    taken.append(t.grad)


class Adam:
    """Adam with bias correction over a fixed parameter list."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
