"""Minimal reverse-mode autodiff over dense 2-D float32 or float64 matrices.

Forward calls go through a Tape, which records one entry per primitive and
replays them in reverse on backward(). Only the primitives the encoder,
edge scorer, and placement head need are provided; everything is 2-D. The
one sparse operand is a constant `SparseMatrix`, applied by `Tape.spmm`.

A tensor keeps a float32 or float64 input's dtype and casts anything else
to float64. Every primitive computes in its operands' dtype: arrays it
makes (outputs, zero-filled sums, masks, lent arrays, the loss's seed
gradient) take that dtype, so a float32 network runs float32 kernels
throughout. Mixing dtypes upcasts to float64, as numpy does; a caller
keeps its operands in one dtype.

Row sums by index share one kernel, `Passes`: the sparse product and its
transpose, the cluster sums of `scatter_add_rows` and the backward of
`gather_rows`. Each target row adds its terms in input order, as
`np.add.at` would, so the sums are bit-identical to it. A dense layer,
its bias, relu and dropout mask are one entry, `dense`, that keeps one
output array: the same float operations in the same order as separate
matmul, add_bias, relu and mul entries.

Gradients are kept only on the gradient path: a primitive's backward skips
inputs that do not require a gradient, only tensors created with
`requires_grad` (parameters) hold a buffer up front, and an intermediate's
gradient lives from the moment backward reaches it until its entry is
replayed. Entries store no derived arrays (relu and clip_min rebuild their
0/1 mask in backward; dropout masks are bool), and backward drops each
entry once it has replayed. A tape made with `record=False` computes the
same values and records nothing, for forward passes that never run
backward.

A tape made with a `Workspace` takes its large arrays (dense and sparse
products, the pass kernel's temporaries, dropout draws and their
gradients) from the workspace's buffers instead of from the allocator,
and backward hands each buffer back once nothing reads it. A loop of
forward/backward pairs with one workspace, reset between pairs, then
writes into the memory the previous pair used, so its pages stay mapped,
and the gradients of one pair reuse the buffers of the outputs already
replayed. Every value comes from the same operations either way.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeMismatch(Exception):
    pass


class NonScalarLoss(Exception):
    pass


FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_float(data) -> np.ndarray:
    """`data` as an array that keeps a float32 or float64 dtype; any other
    dtype is cast to float64."""
    arr = np.asarray(data)
    return arr if arr.dtype in FLOAT_DTYPES else arr.astype(np.float64)


class Tensor:
    """A (rows, cols) float32 or float64 value and its gradient.

    `grad` is a same-shape, same-dtype buffer for tensors created with
    `requires_grad` and None otherwise until backward reaches the tensor."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = as_float(data)
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


# Arrays under this size are never lent: the allocator reuses their memory
# from its free lists, and lending one costs more Python time than a small
# graph's whole primitive.
SMALL_ARRAY_BYTES = 1 << 16


class Workspace:
    """Flat buffers of float64 words lent out as arrays of any shape and
    dtype: float32 or float64 views for a network's values, bool views for
    masks.

    `lend` hands out the smallest free buffer that holds the asked shape,
    as a view with arbitrary contents (as `np.empty`). When no free buffer
    is large enough it regrows the largest free one, and when none is free
    it adds one, so the buffers number the most arrays lent at once and
    each is about as large as the largest array it held. `give` takes lent
    arrays back early; `reset` takes every array back, after which no
    array lent before it may be used. `allocations` counts the buffers
    ever made.
    """

    def __init__(self):
        self.buffers: list[np.ndarray] = []
        self._free: list[int] = []  # positions in `buffers`
        self._lent: dict[int, int] = {}  # id(buffer) -> position
        self.allocations = 0

    def lend(self, shape, dtype=np.float64) -> np.ndarray | None:
        """An array of `shape` and `dtype`, or None under SMALL_ARRAY_BYTES."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        if count * dtype.itemsize < SMALL_ARRAY_BYTES:
            return None
        words = -(-count * dtype.itemsize // 8)
        free, buffers = self._free, self.buffers
        fit = None
        for i in free:
            size = buffers[i].size
            if size >= words and (fit is None or size < buffers[fit].size):
                fit = i
        if fit is None:
            # made at the largest buffer's size when that is at most 1/8
            # larger, so that one level's arrays (n rows, or one per edge)
            # share a size and a slightly larger one regrows no buffer
            largest = max((b.size for b in buffers), default=0)
            made = largest if words <= largest <= words + words // 8 else words
            if free:
                fit = max(free, key=lambda i: buffers[i].size)
                free.remove(fit)
                buffers[fit] = None  # freed before its replacement is made
            else:
                fit = len(buffers)
                buffers.append(None)
            buffers[fit] = np.empty(made)
            self.allocations += 1
        else:
            free.remove(fit)
        buf = buffers[fit]
        self._lent[id(buf)] = fit
        return buf[:words].view(dtype)[:count].reshape(shape)

    def give(self, *arrays: np.ndarray | None) -> None:
        """Take back arrays that `lend` handed out. None, arrays it did not
        lend, and arrays already given back whose buffer is not lent anew
        are ignored."""
        for a in arrays:
            if a is not None and (fit := self._lent.pop(id(a.base), None)) is not None:
                self._free.append(fit)

    def reset(self) -> None:
        self._lent.clear()
        self._free = list(range(len(self.buffers)))


def take_rows(h: np.ndarray, idx: np.ndarray, workspace: Workspace | None) -> np.ndarray:
    """h[idx] for in-range row indices, lent from `workspace` when it lends
    an array of that size."""
    out = None if workspace is None else workspace.lend((len(idx), h.shape[1]), h.dtype)
    return h[idx] if out is None else np.take(h, idx, axis=0, mode="clip", out=out)


class SparseMatrix:
    """A constant n x n matrix: its diagonal plus distinct off-diagonal
    entries weights[e] at (rows[e], cols[e]). The diagonal and the weights
    keep a float32 or float64 dtype, which should be that of the arrays
    the matrix is applied to.

    Products are segment sums over the entries (`Passes`); the plans for the
    product and for its transpose are built here, once.
    """

    def __init__(
        self, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ):
        self.diag = as_float(diag)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        weights = as_float(weights)
        self._passes = Passes(rows, cols, weights)
        self._transposed_passes = Passes(cols, rows, weights)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diag), len(self.diag))

    @property
    def nbytes(self) -> int:
        return self.diag.nbytes + self._passes.nbytes + self._transposed_passes.nbytes

    def apply(
        self, h: np.ndarray, transpose: bool = False, workspace: Workspace | None = None
    ) -> np.ndarray:
        """self @ h, or self.T @ h; the result and the temporaries are lent
        from `workspace` when one is given."""
        passes = self._transposed_passes if transpose else self._passes
        out = None if workspace is None else workspace.lend(h.shape, np.result_type(self.diag, h))
        return passes.accumulate(np.multiply(self.diag[:, None], h, out=out), h, workspace)


class Passes:
    """The sum out[target[e]] += weights[e] * h[source[e]] (weights 1 when
    None), each target row adding its terms in input order, as `np.add.at`.

    Pass k adds the k-th term of every target that has more than k terms.
    Targets are kept most terms first, so pass k's are the first lengths[k]
    of `rows`: a sum gathers those rows once, adds each pass as one
    contiguous block of its terms (stored in pass order), and scatters back.
    """

    def __init__(
        self, target: np.ndarray, source: np.ndarray, weights: np.ndarray | None = None
    ):
        by_target = target.argsort(kind="stable")
        grouped = target[by_target]
        first = grouped.searchsorted(grouped)
        count = grouped.searchsorted(grouped, side="right") - first
        step = np.arange(len(target)) - first  # the pass of each entry
        # pass by pass; within a pass, targets with more entries first
        by_count = (-count).argsort(kind="stable")
        order = by_target[by_count[step[by_count].argsort(kind="stable")]]
        self.lengths = np.bincount(step).tolist()
        self.rows = target[order[: np.count_nonzero(step == 0)]]
        self.source = source[order]
        self.weights = None if weights is None else weights[order, None]

    @property
    def nbytes(self) -> int:
        arrays = (self.rows, self.source, self.weights)
        return sum(a.nbytes for a in arrays if a is not None)

    def accumulate(
        self, out: np.ndarray, h: np.ndarray, workspace: Workspace | None = None
    ) -> np.ndarray:
        """Add every term to `out` in place; returns `out`. The gathered
        terms and rows are lent from `workspace` when one is given."""
        terms = take_rows(h, self.source, workspace)
        if self.weights is not None:
            terms *= self.weights
        acc = take_rows(out, self.rows, workspace)
        start = 0
        for m in self.lengths:
            acc[:m] += terms[start : start + m]
            start += m
        out[self.rows] = acc
        if workspace is not None:
            workspace.give(terms, acc)
        return out


def index_passes(idx) -> Passes:
    """The sum out[idx[j]] += rows[j], as in `scatter_add_rows` and the
    backward of `gather_rows`. A caller that sums by one index many times
    builds this once and hands it in."""
    idx = np.asarray(idx, dtype=np.intp)
    return Passes(idx, np.arange(len(idx)))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, split by sign so exp never overflows."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


class Tape:
    """Records primitive applications and replays them in reverse.

    Each entry is (output, inputs, backward_fn); backward_fn maps the
    upstream gradient to one gradient array per input, or None for an input
    that does not require one. One tape serves one forward/backward pair
    and is single-threaded. backward consumes the tape: it pops each entry
    as it replays it, so every intermediate is released as soon as its
    gradient has been handed on, and the tape is empty afterwards. The
    upstream gradient belongs to backward_fn alone, which may overwrite it.

    With `record=False` the tape keeps no entries, so a forward pass holds
    no intermediate beyond what its caller keeps; outputs then never
    require a gradient.

    With a `workspace`, the large arrays of `dense`, `spmm` and
    `scatter_add_rows` (outputs, temporaries and gradients) are lent from
    it. The backward of those entries gives its output and dropout mask
    back as soon as it has read them, and backward gives each upstream
    gradient back once its entry has replayed. An output is then valid
    only until backward replays its entry or the workspace is reset, so a
    caller keeps none of them.
    """

    def __init__(self, record: bool = True, workspace: Workspace | None = None):
        self.record = record
        self.workspace = workspace
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], back) -> Tensor:
        # a list is faster than a generator for 1 or 2 inputs
        if self.record and any([t.requires_grad for t in inputs]):
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

    def dense(self, a: Tensor, w: Tensor, bias: Tensor | None = None, *,
              relu: bool = False, keep: np.ndarray | None = None,
              rate: float = 0.0) -> Tensor:
        """One layer as one entry: a @ w, plus the 1 x d row `bias`, then
        max(., 0) with `relu`, then times the bool dropout mask `keep` and
        1 / (1 - rate), each in place on the one output array. Values and
        gradients equal those of matmul, add_bias, relu and mul entries
        with the float mask keep / (1 - rate), signed zeros included."""
        if a.shape[1] != w.shape[0]:
            raise ShapeMismatch(f"dense {a.shape} @ {w.shape}")
        if bias is not None and bias.shape != (1, w.shape[1]):
            raise ShapeMismatch(f"dense bias {bias.shape} for {w.shape}")
        ws = self.workspace
        out = None
        if ws is not None:
            dtype = np.result_type(a.data, w.data)
            out = ws.lend((a.data.shape[0], w.data.shape[1]), dtype)
        y = np.matmul(a.data, w.data, out=out)
        if bias is not None:
            y += bias.data
        if relu:
            np.maximum(y, 0.0, out=y)
        if keep is not None:
            scale = 1.0 / (1.0 - rate)
            y *= keep
            y *= scale

        def back(g):
            if keep is not None:
                g *= keep
                g *= scale
            positive = None
            if relu:
                positive = np.greater(y, 0.0, out=None if ws is None else ws.lend(y.shape, bool))
                g *= positive
            if ws is not None:  # y and the masks are not read again
                ws.give(y, keep, positive)
            return (
                np.matmul(g, w.data.T, out=None if ws is None else ws.lend(a.data.shape, dtype))
                if a.requires_grad else None,
                np.matmul(a.data.T, g, out=None if ws is None else ws.lend(w.data.shape, dtype))
                if w.requires_grad else None,
                g.sum(axis=0, keepdims=True) if bias is not None else None,
            )

        inputs = (a, w) if bias is None else (a, w, bias)
        return self._record(Tensor(y), inputs, back)

    def spmm(self, m: SparseMatrix, a: Tensor) -> Tensor:
        """m @ a for a constant sparse m; the backward applies m.T."""
        if m.shape[1] != a.shape[0]:
            raise ShapeMismatch(f"spmm {m.shape} @ {a.shape}")
        ws = self.workspace
        y = m.apply(a.data, workspace=ws)

        def back(g):
            if ws is not None:
                ws.give(y)
            return (m.apply(g, True, ws),)

        return self._record(Tensor(y), (a,), back)

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

    def relu(self, a: Tensor, keep: np.ndarray | None = None) -> Tensor:
        """max(a, 0), times a constant `keep` (a dropout mask) when given:
        one entry that equals relu then mul, signed zeros included."""
        y = np.maximum(a.data, 0.0)
        if keep is not None:
            y *= keep

        def back(g):
            if keep is not None:
                g *= keep
            g *= y > 0.0
            return (g,)

        return self._record(Tensor(y), (a,), back)

    def sigmoid(self, a: Tensor) -> Tensor:
        y = stable_sigmoid(a.data)
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
            return (index_passes(idx).accumulate(np.zeros_like(a.data), g),)

        return self._record(out, (a,), back)

    def scatter_add_rows(self, a: Tensor, idx, num_rows: int, passes=None) -> Tensor:
        """out[i] = sum of rows j of `a` with idx[j] == i; out has num_rows rows.

        `passes` is `index_passes(idx)`, from a caller that keeps it."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.shape != (a.shape[0],):
            raise ShapeMismatch(f"scatter index length {idx.shape} for {a.shape}")
        if passes is None:
            passes = index_passes(idx)
        ws = self.workspace
        shape = (num_rows, a.shape[1])
        out = None if ws is None else ws.lend(shape, a.data.dtype)
        if out is None:
            out = np.zeros(shape, a.data.dtype)
        else:
            out.fill(0.0)
        acc = passes.accumulate(out, a.data, ws)

        def back(g):
            if ws is not None:
                ws.give(acc)
            return (take_rows(g, idx, ws),)

        return self._record(Tensor(acc), (a,), back)

    def sum(self, a: Tensor) -> Tensor:
        out = Tensor(a.data.sum(keepdims=True))
        return self._record(out, (a,), lambda g: (np.full_like(a.data, g[0, 0]),))

    # backward -----------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d loss / d t into t.grad for every leaf that requires
        a gradient. Recorded outputs hand their gradient on and end with
        grad None; every gradient array belongs to one tensor only. With a
        workspace, a replayed entry's upstream gradient and the gradients
        added into existing ones go back to it, unless one became an
        input's gradient."""
        if loss.shape != (1, 1):
            raise NonScalarLoss(f"loss must be 1x1, got {loss.shape}")
        ws = self.workspace
        loss.grad = np.ones((1, 1), loss.data.dtype)
        while self._entries:
            out, inputs, back = self._entries.pop()
            g, out.grad = out.grad, None
            if g is None:  # the loss does not depend on this output
                continue
            taken: list[np.ndarray] = []
            spent = [g]
            for t, tg in zip(inputs, back(g)):
                if not t.requires_grad:
                    continue
                if t.grad is not None:
                    t.grad += tg
                    spent.append(tg)
                else:
                    # a backward may hand one array to several inputs
                    t.grad = tg.copy() if any(tg is x for x in taken) else tg
                    taken.append(t.grad)
            if ws is not None:
                ws.give(*(x for x in spent if not any(x is y for y in taken)))


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
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, then
        p -= lr m_hat / (sqrt(v_hat) + eps): the same float operations, in
        place on m and v with two temporaries per parameter."""
        self.t += 1
        m_scale = 1 - self.beta1**self.t
        v_scale = 1 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            step = g * (1 - self.beta1)
            m *= self.beta1
            m += step
            square = g * g
            square *= 1 - self.beta2
            v *= self.beta2
            v += square
            np.divide(m, m_scale, out=step)
            step *= self.lr
            np.divide(v, v_scale, out=square)
            np.sqrt(square, out=square)
            square += self.eps
            step /= square
            p.data -= step

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
