import numpy as np

from dagplace.autograd import Tape, Tensor
from dagplace.encoder import (
    encode,
    init_gcn,
    init_projection,
    normalize_adjacency,
)
from dagplace.fixtures import random_dag
from dagplace.graph import make_graph
from helpers import central_difference, max_rel_err


def test_normalize_single_node():
    g = make_graph([(0, 0, ())], [], num_op_types=1)
    assert np.array_equal(normalize_adjacency(g), [[1.0]])


def test_normalize_single_edge_by_hand():
    g = make_graph([(0, 0, ()), (1, 0, ())], [(0, 1)], num_op_types=1)
    # A+I = [[1,1],[0,1]], row sums [2,1]
    expected = np.array([[0.5, 1.0 / np.sqrt(2.0)], [0.0, 1.0]])
    assert np.allclose(normalize_adjacency(g), expected, atol=1e-15)


def test_normalize_accepts_matrix_and_graph(diamond):
    assert np.array_equal(
        normalize_adjacency(diamond), normalize_adjacency(diamond.adjacency())
    )


def test_normalize_handles_pooled_two_cycle():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = normalize_adjacency(a)
    assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-15)


def test_init_sizes():
    gcn = init_gcn(np.random.default_rng(0), [4, 4, 4])
    assert len(gcn.layers) == 2
    assert all(w.shape == (4, 4) for w in gcn.layers)
    proj = init_projection(np.random.default_rng(0), 9, 4, layers=2)
    assert [w.shape for w in proj.weights] == [(9, 4), (4, 4)]


def test_encode_matches_straight_line_numpy():
    rng = np.random.default_rng(11)
    g = random_dag(8, seed=2)
    norm = normalize_adjacency(g)
    gcn = init_gcn(rng, [5, 5, 5])
    x = rng.normal(size=(8, 5))
    out = encode(Tape(), Tensor(x), norm, gcn)
    h = x
    for w in gcn.layers:
        h = np.maximum(norm @ h @ w.data, 0.0)
    assert np.allclose(out.data, h, atol=1e-12)


def test_encode_activates_final_layer():
    rng = np.random.default_rng(0)
    g = random_dag(6, seed=0)
    gcn = init_gcn(rng, [3, 3, 3])
    x = rng.normal(size=(6, 3))
    out = encode(Tape(), Tensor(x), normalize_adjacency(g), gcn)
    assert (out.data >= 0.0).all()
    assert (out.data == 0.0).any()  # relu clipped something


def test_encode_permutation_equivariance():
    rng = np.random.default_rng(4)
    n = 7
    g = random_dag(n, seed=3)
    a = g.adjacency()
    x = rng.normal(size=(n, 4))
    gcn = init_gcn(rng, [4, 4, 4])
    perm = rng.permutation(n)
    p = np.eye(n)[perm]
    z = encode(Tape(), Tensor(x), normalize_adjacency(a), gcn)
    z_perm = encode(Tape(), Tensor(p @ x), normalize_adjacency(p @ a @ p.T), gcn)
    assert np.allclose(z_perm.data, p @ z.data, atol=1e-12)


def test_encode_finite_differences():
    rng = np.random.default_rng(21)
    g = random_dag(5, seed=4)
    norm = normalize_adjacency(g)
    gcn = init_gcn(rng, [3, 3, 3])
    x = Tensor(rng.normal(size=(5, 3)))

    def build(tape):
        z = encode(tape, x, norm, gcn)
        return tape.sum(tape.mul(z, Tensor(rngw)))

    rngw = np.random.default_rng(0).normal(size=(5, 3))
    tape = Tape()
    tape.backward(build(tape))
    analytic = [w.grad.copy() for w in gcn.layers]
    numeric = central_difference(
        lambda: float(build(Tape()).data[0, 0]), gcn.layers
    )
    assert max_rel_err(analytic, numeric) < 1e-6


def test_encode_dropout_reproducible_and_optional():
    rng = np.random.default_rng(8)
    g = random_dag(6, seed=5)
    norm = normalize_adjacency(g)
    gcn = init_gcn(rng, [4, 4])
    x = Tensor(rng.normal(size=(6, 4)))
    a = encode(Tape(), x, norm, gcn, dropout=0.5, rng=np.random.default_rng(7))
    b = encode(Tape(), x, norm, gcn, dropout=0.5, rng=np.random.default_rng(7))
    assert np.array_equal(a.data, b.data)
    c = encode(Tape(), x, norm, gcn, dropout=0.0, rng=np.random.default_rng(7))
    d = encode(Tape(), x, norm, gcn)
    assert np.array_equal(c.data, d.data)
    assert not np.array_equal(a.data, d.data)
