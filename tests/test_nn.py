import numpy as np
import pytest

from dagplace.autograd import Tape, Tensor, parameter
from dagplace.nn import Mlp, glorot, init_mlp, keep_mask, mlp_forward
from helpers import central_difference, max_rel_err


def test_glorot_bound_and_determinism():
    rng = np.random.default_rng(1)
    w = glorot(rng, 30, 50)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= np.sqrt(6.0 / 80)
    assert np.array_equal(w, glorot(np.random.default_rng(1), 30, 50))


def test_init_mlp_shapes_and_parameters():
    mlp = init_mlp(np.random.default_rng(0), [5, 7, 3])
    assert [w.shape for w in mlp.weights] == [(5, 7), (7, 3)]
    assert [b.shape for b in mlp.biases] == [(1, 7), (1, 3)]
    assert all(not b.data.any() for b in mlp.biases)
    params = mlp.parameters()
    assert len(params) == 4 and all(p.requires_grad for p in params)


def test_mlp_forward_single_layer_is_affine():
    mlp = Mlp([parameter([[2.0], [3.0]])], [parameter([[-10.0]])])
    out = mlp_forward(Tape(), Tensor([[1.0, 1.0]]), mlp)
    # no activation on the output layer, so negatives survive
    assert np.array_equal(out.data, [[-5.0]])


def test_mlp_forward_relu_between_layers_only():
    w1 = parameter([[1.0], [-1.0]])
    w2 = parameter([[-1.0]])
    mlp = Mlp([w1, w2], [parameter([[0.0]]), parameter([[0.0]])])
    x = Tensor([[0.0, 1.0], [1.0, 0.0]])
    out = mlp_forward(Tape(), x, mlp)
    # hidden relu([-1, 1]) = [0, 1]; output -1 * hidden
    assert np.array_equal(out.data, [[0.0], [-1.0]])


def test_mlp_forward_matches_manual_numpy():
    rng = np.random.default_rng(5)
    mlp = init_mlp(rng, [4, 6, 2])
    x = rng.normal(size=(3, 4))
    out = mlp_forward(Tape(), Tensor(x), mlp)
    h = np.maximum(x @ mlp.weights[0].data + mlp.biases[0].data, 0.0)
    ref = h @ mlp.weights[1].data + mlp.biases[1].data
    assert np.allclose(out.data, ref, atol=1e-14)


def test_mlp_forward_finite_differences():
    rng = np.random.default_rng(9)
    mlp = init_mlp(rng, [3, 5, 2])
    x = Tensor(rng.normal(size=(4, 3)))

    def build(tape):
        return tape.sum(tape.sigmoid(mlp_forward(tape, x, mlp)))

    tape = Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in mlp.parameters()]
    numeric = central_difference(
        lambda: float(build(Tape()).data[0, 0]), mlp.parameters()
    )
    assert max_rel_err(analytic, numeric) < 1e-6


def test_dropout_identity_paths():
    """No mask without a rate or a generator; a dense layer without a mask
    applies no dropout."""
    x = Tensor([[1.0, 2.0]])
    assert keep_mask(x.shape, 0.0, np.random.default_rng(0)) is None
    assert keep_mask(x.shape, 0.5, None) is None
    out = Tape().dense(x, Tensor(np.eye(2)), keep=None, rate=0.5)
    assert np.array_equal(out.data, x.data)


def test_dropout_scales_kept_entries():
    x = Tensor(np.ones((200, 10)))
    keep = keep_mask(x.shape, 0.25, np.random.default_rng(0))
    out = Tape().dense(x, Tensor(np.eye(10)), keep=keep, rate=0.25)
    vals = np.unique(out.data)
    assert set(vals.tolist()) == {0.0, 1.0 / 0.75}
    # inverted scaling keeps the expectation near 1
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_gradient_is_the_mask():
    tape = Tape()
    p = parameter(np.ones((3, 3)))
    keep = keep_mask(p.shape, 0.5, np.random.default_rng(2))
    out = tape.dense(p, Tensor(np.eye(3)), keep=keep, rate=0.5)
    tape.backward(tape.sum(out))
    assert np.array_equal(p.grad, (out.data > 0) * 2.0)


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.5, 0.9])
def test_dropout_keep_values_equal_the_cast_formula(rate):
    """keep_mask's draw, applied by a dense layer, equals the float cast of
    the draw divided by the keep rate, bit for bit, alone and after a relu."""
    x = Tensor(np.ones((60, 50)))
    reference = np.random.default_rng(4)
    expected = (reference.random(x.shape) >= rate).astype(np.float64) / (1 - rate)
    after = reference.random()
    for relu in (False, True):
        rng = np.random.default_rng(4)
        keep = keep_mask(x.shape, rate, rng)
        out = Tape().dense(x, Tensor(np.eye(50)), relu=relu, keep=keep, rate=rate)
        assert out.data.tobytes() == expected.tobytes()
        assert rng.random() == after  # the same draws from the stream


@pytest.mark.parametrize("rate", [0.1, 0.2, 0.5, 0.9])
def test_bool_mask_equals_the_float_keep(rate):
    """keep_mask makes the same draws the float mask was built from, and a
    dense layer applying it as `*= mask` then `*= 1 / (1 - rate)` equals
    `*= keep` with the float mask, bit for bit, on infinities, NaN and
    zeros of both signs too, with and without relu."""
    shape = (60, 50)
    reference = np.random.default_rng(4)
    keep = reference.random(shape)  # the float mask, built as it was
    np.greater_equal(keep, rate, out=keep)
    keep *= 1.0 / (1.0 - rate)
    rng = np.random.default_rng(4)
    mask = keep_mask(shape, rate, rng)
    assert mask.dtype == bool and rng.random() == reference.random()

    data = np.random.default_rng(5)
    a, w = Tensor(data.normal(size=(60, 8))), Tensor(data.normal(size=(8, 50)))
    bias = data.normal(size=(1, 50))
    bias[0, :5] = [np.inf, -np.inf, np.nan, 0.0, -0.0]
    a.data[:2] = 0.0  # rows equal to the bias alone
    pre = a.data @ w.data + bias
    for relu in (False, True):
        with np.errstate(invalid="ignore"):  # inf times a dropped entry
            out = Tape().dense(a, w, Tensor(bias), relu=relu, keep=mask, rate=rate)
            expected = (np.maximum(pre, 0.0) if relu else pre) * keep
        assert out.data.tobytes() == expected.tobytes()
    assert np.isnan(out.data).any() and np.isinf(out.data).any()

