import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagplace import autograd
from dagplace.autograd import (
    Adam,
    NonScalarLoss,
    ShapeMismatch,
    SparseMatrix,
    Tape,
    Tensor,
    index_passes,
    parameter,
)
from helpers import (
    NanWorkspace,
    add_at_reference,
    central_difference,
    dense_unfused,
    max_rel_err,
)


def test_tensor_reshapes_vectors_to_rows():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.shape == (1, 3)


def test_tensor_rejects_higher_rank():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((2, 2, 2)))


def test_tape_records_only_grad_paths():
    tape = Tape()
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0]])
    out = tape.add(a, b)
    assert len(tape) == 0 and not out.requires_grad
    p = parameter([[1.0, 2.0]])
    out2 = tape.add(p, b)
    assert len(tape) == 1 and out2.requires_grad


def test_backward_rejects_non_scalar():
    tape = Tape()
    p = parameter([[1.0, 2.0]])
    out = tape.scale(p, 2.0)
    with pytest.raises(NonScalarLoss):
        tape.backward(out)


def test_shape_mismatches():
    tape = Tape()
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        tape.matmul(a, Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeMismatch):
        tape.add(a, b)
    with pytest.raises(ShapeMismatch):
        tape.mul(a, b)
    with pytest.raises(ShapeMismatch):
        tape.add_bias(a, Tensor(np.ones((1, 2))))
    with pytest.raises(ShapeMismatch):
        tape.scatter_add_rows(a, [0], num_rows=2)
    with pytest.raises(ShapeMismatch):
        tape.spmm(SparseMatrix(np.ones(3), [0], [1], [1.0]), b)
    with pytest.raises(ShapeMismatch):
        tape.dense(a, b)
    with pytest.raises(ShapeMismatch):
        tape.dense(b, b, Tensor(np.ones((1, 3))))


def test_gradient_accumulates_across_reuse():
    tape = Tape()
    p = parameter([[1.0, 2.0]])
    loss = tape.sum(tape.add(p, p))
    tape.backward(loss)
    assert np.array_equal(p.grad, [[2.0, 2.0]])


def test_log_gradient_value():
    tape = Tape()
    p = parameter([[2.0, 4.0]])
    tape.backward(tape.sum(tape.log(p)))
    assert np.allclose(p.grad, [[0.5, 0.25]], atol=1e-15)


def test_sigmoid_extremes_are_exact_and_silent():
    tape = Tape()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tape.sigmoid(Tensor([[800.0, -800.0, 0.0]]))
    assert np.array_equal(out.data, [[1.0, 0.0, 0.5]])


def test_clip_min_values_and_gradient():
    tape = Tape()
    p = parameter([[0.5, 1e-15, 2.0]])
    out = tape.clip_min(p, 1e-12)
    assert np.array_equal(out.data, [[0.5, 1e-12, 2.0]])
    tape.backward(tape.sum(out))
    assert np.array_equal(p.grad, [[1.0, 0.0, 1.0]])


def test_scatter_add_rows_values():
    tape = Tape()
    a = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = tape.scatter_add_rows(a, [1, 0, 1], num_rows=2)
    assert np.array_equal(out.data, [[3.0, 4.0], [6.0, 8.0]])


def test_gather_rows_repeats():
    tape = Tape()
    p = parameter([[1.0], [2.0]])
    out = tape.gather_rows(p, [0, 0, 1])
    assert np.array_equal(out.data, [[1.0], [1.0], [2.0]])
    tape.backward(tape.sum(out))
    assert np.array_equal(p.grad, [[2.0], [1.0]])


def _fd_case(name, build, params):
    """Backward pass vs central differences for one composite expression."""
    tape = Tape()
    loss = build(tape)
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    def f():
        return float(build(Tape()).data[0, 0])

    numeric = central_difference(f, params)
    err = max_rel_err(analytic, numeric)
    assert err < 1e-7, (name, err)


def test_finite_differences_every_primitive():
    rng = np.random.default_rng(42)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4, 2)))
    c = parameter(rng.normal(size=(3, 4)))
    bias = parameter(rng.normal(size=(1, 2)))
    pos = parameter(rng.uniform(0.5, 2.0, size=(3, 4)))
    # keep relu inputs away from the kink so the finite difference is clean
    off = parameter(rng.normal(size=(3, 4)) + np.sign(rng.normal(size=(3, 4))) * 0.5)
    # rows 0 and 2 and columns 1 and 2 repeat, so products and transposes
    # take several passes
    sparse = SparseMatrix(
        rng.normal(size=3), [0, 0, 1, 2, 2], [1, 2, 2, 1, 0], rng.normal(size=5)
    )
    keep = np.array([[1.25, 0.0, 1.25, 1.25]] * 3)
    d = Tensor(rng.normal(size=(3, 2)))
    # a dense layer's pre-activations a @ b + bias stay away from the kink
    assert np.abs(a.data @ b.data + bias.data).min() > 0.05
    mask = np.array([[True, False]] * 3)

    cases = [
        ("matmul", lambda t: t.sum(t.matmul(a, b)), [a, b]),
        ("add", lambda t: t.sum(t.add(a, c)), [a, c]),
        ("add_bias", lambda t: t.sum(t.add_bias(t.matmul(a, b), bias)), [a, b, bias]),
        ("mul", lambda t: t.sum(t.mul(a, c)), [a, c]),
        ("scale", lambda t: t.sum(t.scale(a, -1.7)), [a]),
        ("relu", lambda t: t.sum(t.relu(off)), [off]),
        ("relu_dropout", lambda t: t.sum(t.mul(t.relu(off, keep), c)), [off]),
        ("dense", lambda t: t.sum(t.mul(t.dense(a, b, bias), d)), [a, b, bias]),
        (
            "dense_relu_dropout",
            lambda t: t.sum(t.mul(
                t.dense(a, b, bias, relu=True, keep=mask, rate=0.2), d
            )),
            [a, b, bias],
        ),
        ("dense_no_bias", lambda t: t.sum(t.dense(a, b, relu=True)), [a, b]),
        ("sigmoid", lambda t: t.sum(t.sigmoid(a)), [a]),
        ("log", lambda t: t.sum(t.log(pos)), [pos]),
        ("softmax", lambda t: t.sum(t.mul(t.softmax_rows(a), c)), [a]),
        ("gather", lambda t: t.sum(t.gather_rows(a, [2, 0, 2, 1])), [a]),
        (
            "scatter",
            lambda t: t.sum(t.mul(t.scatter_add_rows(a, [1, 0, 1], 2),
                                  Tensor([[1.0, -2.0, 3.0, 0.5]] * 2))),
            [a],
        ),
        ("clip", lambda t: t.sum(t.clip_min(pos, 0.9)), [pos]),
        ("spmm", lambda t: t.sum(t.mul(t.spmm(sparse, a), c)), [a]),
    ]
    for name, build, params in cases:
        for p in params:
            p.zero_grad()
        _fd_case(name, build, params)


def _with_zeros(rng, shape):
    """Normal values with exact zeros of both signs mixed in."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def _gradient_target(data) -> Tensor:
    """A tensor on the gradient path without a gradient buffer, so that its
    grad is exactly the array backward hands it."""
    t = Tensor(data)
    t.requires_grad = True
    return t


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def row_sums(draw):
    num_rows = draw(st.integers(1, 6))
    idx = draw(st.lists(st.integers(0, num_rows - 1), max_size=24))
    return num_rows, idx, draw(st.sampled_from([1, 128])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=row_sums())
@example(case=(3, [], 1, 0))
@example(case=(3, [], 128, 0))
@example(case=(1, [0], 1, 1))
@example(case=(4, [2], 128, 2))
@example(case=(5, [3, 3, 0, 3, 0, 3], 128, 3))
def test_row_sums_equal_sequential_add_at(case):
    """scatter_add_rows forward and gather_rows backward add each row's
    terms in index order: bit for bit `np.add.at`, signed zeros included,
    with repeated indices, unused output rows and an empty index."""
    num_rows, idx, width, seed = case
    rng = np.random.default_rng(seed)
    a = Tensor(_with_zeros(rng, (len(idx), width)))
    out = Tape().scatter_add_rows(a, idx, num_rows)
    assert _same_bits(out.data, add_at_reference(idx, a.data, num_rows))

    upstream = _with_zeros(rng, (len(idx), width))
    p = _gradient_target(rng.normal(size=(num_rows, width)))
    tape = Tape()
    tape.backward(tape.sum(tape.mul(tape.gather_rows(p, idx), Tensor(upstream))))
    assert _same_bits(p.grad, add_at_reference(idx, upstream, num_rows))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    data=st.data(),
    width=st.sampled_from([1, 128]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spmm_equals_sequential_add_at(n, data, width, seed):
    """The product and its transpose add each row's entries in input order
    onto the diagonal term, bit for bit as `np.add.at` would."""
    pairs = [(r, c) for r in range(n) for c in range(n) if r != c]
    entries = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    rows = np.array([r for r, _ in entries], dtype=np.intp)
    cols = np.array([c for _, c in entries], dtype=np.intp)
    rng = np.random.default_rng(seed)
    diag, weights = rng.random(n), rng.normal(size=len(entries))
    h = _with_zeros(rng, (n, width))
    m = SparseMatrix(diag, rows, cols, weights)
    for target, source, transpose in ((rows, cols, False), (cols, rows, True)):
        expected = diag[:, None] * h
        np.add.at(expected, target, weights[:, None] * h[source])
        assert _same_bits(m.apply(h, transpose=transpose), expected)


def _dense_round(rng_seed, width, workspace):
    """The value of a relu dense layer with dropout and bias over x + x,
    and the gradients of x, the weights and the bias, each copied before
    the workspace (when there is one) may lend its buffer again. The add's
    backward hands its upstream gradient, lent by the dense backward, on to
    x unchanged."""
    rng = np.random.default_rng(rng_seed)
    shapes = ((6, width), (width, width), (1, width))
    x, w, b = (_gradient_target(_with_zeros(rng, shape)) for shape in shapes)
    keep = rng.random((6, width)) >= 0.3
    upstream = _with_zeros(rng, (6, width))
    tape = Tape(workspace=workspace)
    out = tape.dense(tape.add(x, x), w, b, relu=True, keep=keep, rate=0.3)
    value = out.data.copy()
    tape.backward(tape.sum(tape.mul(out, Tensor(upstream))))
    return [value] + [t.grad.copy() for t in (x, w, b)]


@st.composite
def sparse_cases(draw):
    """n, distinct off-diagonal (row, col) entries, a row index with
    repeats, a width and a seed."""
    n = draw(st.integers(1, 7))
    pairs = [(r, c) for r in range(n) for c in range(n) if r != c]
    entries = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    idx = draw(st.lists(st.integers(0, n - 1), max_size=24))
    return n, entries, idx, draw(st.sampled_from([1, 128])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=sparse_cases())
@example(case=(3, [], [], 1, 0))
@example(case=(4, [(0, 1), (2, 1), (3, 1)], [2, 2, 0, 2], 128, 1))
def test_workspace_arrays_equal_fresh_allocation(case):
    """SparseMatrix.apply, Passes.accumulate and a dense layer's value and
    gradients write the same bytes into arrays lent from a workspace, each
    full of NaN bytes when lent and reused on the second round, as into
    fresh arrays: with an empty edge set and with repeated targets. Every
    size is lent here, so width 1 is lent too."""
    n, entries, idx, width, seed = case
    rows = np.array([r for r, _ in entries], dtype=np.intp)
    cols = np.array([c for _, c in entries], dtype=np.intp)
    rng = np.random.default_rng(seed)
    m = SparseMatrix(rng.random(n), rows, cols, rng.normal(size=len(entries)))
    h = _with_zeros(rng, (n, width))
    terms = _with_zeros(rng, (len(idx), width))
    start = rng.normal(size=(n, width))
    passes = index_passes(idx)
    fresh = [m.apply(h), m.apply(h, transpose=True),
             passes.accumulate(start.copy(), terms)] + _dense_round(seed, width, None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(autograd, "SMALL_ARRAY_BYTES", 0)
        ws = NanWorkspace()
        for _ in range(2):
            lent = [m.apply(h, workspace=ws), m.apply(h, True, ws),
                    passes.accumulate(start.copy(), terms, ws)]
            lent += _dense_round(seed, width, ws)
            assert all(_same_bits(a, b) for a, b in zip(lent, fresh, strict=True))
            ws.reset()
    assert ws.allocations > 0


def test_relu_with_keep_equals_relu_then_mul():
    """relu(a, keep) is one entry with the value and input gradient of relu
    then mul, bit for bit: exact zeros of both signs in the input, dropped
    entries on either side of the kink, negative upstream gradients."""
    rng = np.random.default_rng(5)
    a = _with_zeros(rng, (40, 16))
    keep = (rng.random(a.shape) >= 0.3) * (1.0 / 0.7)
    upstream = _with_zeros(rng, a.shape)
    results = []
    for fused in (True, False):
        x = _gradient_target(a.copy())
        tape = Tape()
        out = tape.relu(x, keep) if fused else tape.mul(tape.relu(x), Tensor(keep))
        assert len(tape) == (1 if fused else 2)
        tape.backward(tape.sum(tape.mul(out, Tensor(upstream))))
        results.append((out.data, x.grad))
    (fused_out, fused_grad), (plain_out, plain_grad) = results
    assert _same_bits(fused_out, plain_out)
    assert _same_bits(fused_grad, plain_grad)
    assert (fused_grad < 0).any() and np.signbit(fused_grad[fused_grad == 0]).any()


def _dense_inputs(rng, n=40, d_in=12, d_out=16):
    """Inputs whose pre-activations hold exact zeros of both signs: zero rows
    of `a`, a zero column of `w`, and bias entries 0.0 and -0.0."""
    a = _with_zeros(rng, (n, d_in))
    a[::7] = 0.0
    a[3::7] = -0.0
    w = rng.normal(size=(d_in, d_out))
    w[:, 5] = 0.0
    bias = rng.normal(size=(1, d_out))
    bias[0, :3] = [0.0, -0.0, 0.0]
    bias[0, 5] = -0.0
    return a, w, bias


@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize(
    "relu,dropout", [(False, False), (True, False), (False, True), (True, True)]
)
def test_dense_equals_unfused_chains(with_bias, relu, dropout):
    """dense is one entry with the value and the gradients of every input of
    matmul -> add_bias (-> relu), and of matmul -> relu(keep) with the float
    mask, bit for bit: signed zeros in the input, dropped entries on either
    side of the kink, negative upstream gradients."""
    rng = np.random.default_rng(6)
    a, w, bias = _dense_inputs(rng)
    keep = rng.random((len(a), w.shape[1])) >= 0.3 if dropout else None
    upstream = _with_zeros(rng, (len(a), w.shape[1]))
    results = []
    for fused in (True, False):
        x, wt, bt = (_gradient_target(v.copy()) for v in (a, w, bias))
        b = bt if with_bias else None
        tape = Tape()
        if fused:
            out = tape.dense(x, wt, b, relu=relu, keep=keep, rate=0.3)
        else:
            out = dense_unfused(tape, x, wt, b, relu=relu, keep=keep, rate=0.3)
        assert len(tape) == (1 if fused else 1 + with_bias + (relu or dropout))
        tape.backward(tape.sum(tape.mul(out, Tensor(upstream))))
        results.append([out.data, x.grad, wt.grad] + ([bt.grad] if with_bias else []))
    (out, a_grad, w_grad, *_), plain = results
    assert all(_same_bits(f, p) for f, p in zip(results[0], plain))
    assert (a_grad < 0).any()
    if relu:
        assert (out == 0).any()
        assert not w_grad[:, 5].any()  # a column that relu zeroes everywhere


def test_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(2)
    w = parameter(rng.normal(size=(3, 2)))
    x = Tensor(rng.normal(size=(4, 3)))
    tape = Tape()
    out = tape.matmul(x, w)
    tape.backward(tape.sum(out))
    assert x.grad is None
    assert out.grad is None  # an intermediate's gradient is freed on replay
    constant_grad = w.grad.copy()

    w.zero_grad()
    x_var = Tensor(x.data, requires_grad=True)
    tape = Tape()
    tape.backward(tape.sum(tape.matmul(x_var, w)))
    assert np.array_equal(w.grad, constant_grad)
    assert np.allclose(x_var.grad, np.ones((4, 2)) @ w.data.T)


def test_gradient_arrays_never_alias():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0, 4.0]])
    a.requires_grad = b.requires_grad = True
    tape = Tape()
    tape.backward(tape.sum(tape.add(a, b)))
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, [[1.0, 1.0]])


def test_finite_difference_composite_network():
    rng = np.random.default_rng(7)
    w1 = parameter(rng.normal(size=(3, 4)) * 0.5)
    w2 = parameter(rng.normal(size=(4, 2)) * 0.5)
    x = Tensor(rng.normal(size=(5, 3)))

    def build(tape):
        h = tape.relu(tape.matmul(x, w1))
        return tape.sum(tape.log(tape.softmax_rows(tape.matmul(h, w2))))

    tape = Tape()
    tape.backward(build(tape))
    analytic = [w1.grad.copy(), w2.grad.copy()]
    numeric = central_difference(lambda: float(build(Tape()).data[0, 0]), [w1, w2])
    assert max_rel_err(analytic, numeric) < 1e-6


def reference_adam(data, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight-line reimplementation used as the optimizer oracle."""
    p = data.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return p


def test_adam_matches_reference():
    rng = np.random.default_rng(3)
    start = rng.normal(size=(2, 3))
    grads = [rng.normal(size=(2, 3)) for _ in range(5)]

    p = parameter(start.copy())
    opt = Adam([p], lr=0.05)
    for g in grads:
        opt.zero_grad()
        p.grad += g
        opt.step()
    assert np.allclose(p.data, reference_adam(start, grads, 0.05), atol=1e-12)


def test_adam_first_step_size_is_lr():
    p = parameter([[10.0]])
    opt = Adam([p], lr=0.01)
    p.grad += 4.0
    opt.step()
    # bias correction makes the first step lr * g / (|g| + eps)
    assert p.data[0, 0] == pytest.approx(10.0 - 0.01, abs=1e-9)


def test_adam_zero_gradient_keeps_parameters():
    p = parameter([[1.0, 2.0]])
    opt = Adam([p], lr=0.5)
    opt.zero_grad()
    opt.step()
    assert np.array_equal(p.data, [[1.0, 2.0]])
