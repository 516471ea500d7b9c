import json

import numpy as np
import pytest

from dagplace.autograd import Tape, Tensor, parameter
from dagplace.nn import Mlp
from dagplace.partition import AssignMatrix
from dagplace.policy import (
    PROB_FLOOR,
    device_distribution,
    greedy_placement,
    init_placer,
    lift_placement,
    log_prob_of,
    sample_placement,
    save_placement,
)
from helpers import central_difference, max_rel_err


def bias_only_placer(d_in: int, logits) -> Mlp:
    """Single linear layer with zero weights, so rows share fixed logits."""
    logits = np.asarray(logits, dtype=np.float64).reshape(1, -1)
    return Mlp(
        [parameter(np.zeros((d_in, logits.shape[1])))], [parameter(logits)]
    )


def test_default_devices_names(tmp_path):
    path = tmp_path / "placement.json"
    save_placement(np.array([0, 1]), 2, path)
    assert json.loads(path.read_text())["devices"] == ["CPU", "GPU"]
    save_placement(np.array([3, 2]), 4, path)
    assert json.loads(path.read_text())["devices"] == ["CPU", "GPU", "DEVICE2", "DEVICE3"]


def test_init_placer_widths():
    placer = init_placer(np.random.default_rng(0), 6, 8, 3)
    assert [w.shape for w in placer.weights] == [(6, 8), (8, 8), (8, 3)]


def test_distribution_rows_are_stochastic():
    rng = np.random.default_rng(1)
    placer = init_placer(rng, 4, 5, 3)
    dist = device_distribution(Tape(), Tensor(rng.normal(size=(6, 4))), placer)
    assert dist.shape == (6, 3)
    assert np.allclose(dist.data.sum(axis=1), 1.0, atol=1e-12)
    assert (dist.data > 0).all()


def test_distribution_uniform_for_zero_net():
    placer = bias_only_placer(3, [0.0, 0.0])
    dist = device_distribution(Tape(), Tensor(np.ones((4, 3))), placer)
    assert np.allclose(dist.data, 0.5, atol=1e-15)


def test_distribution_extreme_logits():
    placer = bias_only_placer(2, [10.0, -10.0])
    dist = device_distribution(Tape(), Tensor(np.zeros((1, 2))), placer)
    expected = np.exp([0.0, -20.0])
    expected /= expected.sum()
    assert np.allclose(dist.data, expected, atol=1e-12)
    assert dist.data[0, 1] == pytest.approx(2e-9, rel=0.05)


def test_log_prob_values():
    dist = Tensor(np.full((3, 2), 0.5))
    lp = log_prob_of(Tape(), dist, np.array([0, 1, 0]))
    assert lp.data[0, 0] == pytest.approx(3 * np.log(0.5), abs=1e-12)

    sure = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    lp = log_prob_of(Tape(), sure, np.array([0, 1]))
    assert lp.data[0, 0] == 0.0


def test_log_prob_matches_explicit_sum():
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.05, 1.0, size=(4, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    action = np.array([2, 0, 1, 1])
    lp = log_prob_of(Tape(), Tensor(probs), action)
    ref = sum(np.log(probs[i, a]) for i, a in enumerate(action))
    assert lp.data[0, 0] == pytest.approx(ref, abs=1e-12)


def test_log_prob_underflow_stays_finite():
    # softmax of a huge gap underflows the losing probability to exact zero
    tape = Tape()
    dist = tape.softmax_rows(Tensor([[800.0, 0.0]]))
    assert dist.data[0, 1] == 0.0
    lp = log_prob_of(tape, dist, np.array([1]))
    assert lp.data[0, 0] == pytest.approx(np.log(PROB_FLOOR))


def test_log_prob_finite_differences_against_explicit_formula():
    # seed chosen so no relu pre-activation sits within h of its kink
    rng = np.random.default_rng(19)
    placer = init_placer(rng, 3, 4, 2)
    x = Tensor(rng.normal(size=(5, 3)))
    action = np.array([0, 1, 1, 0, 1])

    tape = Tape()
    lp = log_prob_of(tape, device_distribution(tape, x, placer), action)
    tape.backward(lp)
    analytic = [p.grad.copy() for p in placer.parameters()]

    def explicit():
        h = x.data
        last = len(placer.weights) - 1
        for i, (w, b) in enumerate(zip(placer.weights, placer.biases)):
            h = h @ w.data + b.data
            if i < last:
                h = np.maximum(h, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        return float(sum(np.log(probs[i, a]) for i, a in enumerate(action)))

    numeric = central_difference(explicit, placer.parameters())
    assert max_rel_err(analytic, numeric) < 1e-6


def test_sample_placement_frequencies():
    probs = np.array([[0.3, 0.7], [0.9, 0.1]])
    rng = np.random.default_rng(0)
    counts = np.zeros(2)
    n = 10000
    for _ in range(n):
        placement, _ = sample_placement(Tape(), Tensor(probs), rng)
        counts += placement
    for row, p1 in enumerate([0.7, 0.1]):
        sigma = np.sqrt(n * p1 * (1 - p1))
        assert abs(counts[row] - n * p1) <= 3 * sigma


def test_sample_placement_log_prob_matches_action():
    rng = np.random.default_rng(4)
    probs = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    tape = Tape()
    placement, lp = sample_placement(tape, Tensor(probs), rng)
    ref = log_prob_of(Tape(), Tensor(probs), placement)
    assert lp.data[0, 0] == pytest.approx(ref.data[0, 0], abs=1e-12)


def test_sample_placement_deterministic_rows():
    probs = np.array([[0.0, 1.0], [1.0, 0.0]])
    placement, lp = sample_placement(Tape(), Tensor(probs), np.random.default_rng(0))
    assert np.array_equal(placement, [1, 0])
    assert lp.data[0, 0] == 0.0


def test_greedy_ties_take_lowest_device():
    dist = np.array([[0.5, 0.5], [0.2, 0.8]])
    assert np.array_equal(greedy_placement(dist), [0, 1])


def test_greedy_invariant_to_logit_shift():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 3))

    def softmax(x):
        e = np.exp(x - x.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    a = greedy_placement(softmax(logits))
    b = greedy_placement(softmax(logits + 13.5))
    assert np.array_equal(a, b)


def test_lift_placement():
    assign = AssignMatrix(np.array([0, 0, 1, 2, 1]), 3)
    lifted = lift_placement(np.array([1, 0, 1]), assign)
    assert np.array_equal(lifted, [1, 1, 0, 1, 0])
    identity = AssignMatrix(np.arange(3), 3)
    assert np.array_equal(lift_placement(np.array([2, 0, 1]), identity), [2, 0, 1])


def test_save_load_placement(tmp_path):
    path = tmp_path / "placement.json"
    save_placement(np.array([0, 1, 1], dtype=np.intp), 2, path)
    assert path.read_text() == (
        '{\n "assignments": [\n  0,\n  1,\n  1\n ],\n "devices": [\n  "CPU",\n  "GPU"\n ]\n}\n'
    )
