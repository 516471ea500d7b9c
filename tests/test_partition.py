import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplace.autograd import Tape, Tensor, parameter
from dagplace.fixtures import random_dag
from dagplace.nn import Mlp, init_mlp
from dagplace.partition import (
    AssignMatrix,
    EdgeScores,
    PooledGraph,
    drop_edges,
    parse_clusters,
    pool,
    pool_features,
    retain_dominant_edges,
    score_edges,
)
from helpers import (
    central_difference,
    dense_from_edges,
    edge_array,
    edge_pairs,
    level_from_dense,
    max_rel_err,
    one_hot,
    pooled_adjacency_oracle,
    retain_dominant_edges_reference,
)


def manual_scores(scored: dict[tuple[int, int], float]) -> EdgeScores:
    edges = tuple(scored)
    tensor = Tensor(np.array([[scored[e]] for e in edges]))
    return EdgeScores(edge_array(edges), tensor)


def zero_phi(width: int) -> Mlp:
    return Mlp([parameter(np.zeros((width, 1)))], [parameter(np.zeros((1, 1)))])


class FakeGraph:
    def __init__(self, num_nodes, edges):
        self.num_nodes = num_nodes
        self.edges = tuple(edges)


def test_assign_matrix_validation():
    AssignMatrix(np.array([0, 1, 0]), 2)
    with pytest.raises(ValueError):
        AssignMatrix(np.array([0, 2]), 3)  # cluster 1 empty
    with pytest.raises(ValueError):
        AssignMatrix(np.array([-1, 0]), 1)
    with pytest.raises(ValueError):
        AssignMatrix(np.array([0, 1]), 1)


def test_assign_matrix_one_hot():
    assign = AssignMatrix(np.array([1, 0, 1]), 2)
    assert np.array_equal(one_hot(assign), [[0, 1], [1, 0], [0, 1]])


def test_assign_compose():
    fine = AssignMatrix(np.array([0, 0, 1, 2]), 3)  # 4 nodes -> 3 clusters
    coarser = AssignMatrix(np.array([0, 0, 1]), 2)  # 3 clusters -> 2
    composed = fine.compose(coarser)
    assert np.array_equal(composed.membership, [0, 0, 0, 1])
    assert composed.num_clusters == 2


def test_score_edges_zero_net_gives_half():
    z = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    g = FakeGraph(4, [(0, 1), (1, 2), (2, 3)])
    scores = score_edges(Tape(), z, PooledGraph.of(g), zero_phi(3))
    assert edge_pairs(scores.edges) == g.edges
    assert np.array_equal(scores.tensor.data, np.full((3, 1), 0.5))


def test_score_edges_empty_graph():
    z = Tensor(np.zeros((3, 2)))
    scores = score_edges(Tape(), z, PooledGraph.of(FakeGraph(3, [])), zero_phi(2))
    assert edge_pairs(scores.edges) == ()
    assert scores.tensor.shape == (0, 1)


def test_score_edges_matches_manual_formula():
    rng = np.random.default_rng(3)
    z = Tensor(rng.normal(size=(5, 4)))
    phi = init_mlp(rng, [4, 1])
    g = PooledGraph.of(FakeGraph(5, [(0, 3), (2, 4)]))
    scores = score_edges(Tape(), z, g, phi)
    for (u, v), got in zip(edge_pairs(scores.edges), scores.tensor.data[:, 0]):
        raw = (z.data[u] * z.data[v]) @ phi.weights[0].data + phi.biases[0].data
        assert got == pytest.approx(1.0 / (1.0 + np.exp(-raw[0, 0])), abs=1e-12)


def test_drop_edges_identity_paths():
    scores = manual_scores({(0, 1): 0.9})
    assert drop_edges(scores, 0.0, np.random.default_rng(0)) is scores
    assert drop_edges(scores, 0.5, None) is scores
    empty = manual_scores({})
    assert drop_edges(empty, 0.5, np.random.default_rng(0)) is empty


def test_drop_edges_removes_aligned_rows():
    scored = {(0, 1): 0.1, (1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.4}
    scores = manual_scores(scored)
    rng = np.random.default_rng(1)
    kept = drop_edges(scores, 0.5, rng)
    assert set(edge_pairs(kept.edges)) < set(edge_pairs(scores.edges))
    for e, s in zip(edge_pairs(kept.edges), kept.tensor.data[:, 0]):
        assert scored[e] == s


def test_retain_keeps_per_node_best_edge():
    # chain 0-1-2: node 1 prefers its higher-scoring side
    retained = retain_dominant_edges(
        manual_scores({(0, 1): 0.9, (1, 2): 0.3}), FakeGraph(3, [(0, 1), (1, 2)])
    )
    assert edge_pairs(retained) == ((0, 1), (1, 2))  # node 2 still keeps (1, 2)

    star = {(0, 1): 0.5, (0, 2): 0.7, (0, 3): 0.6}
    retained = retain_dominant_edges(manual_scores(star), FakeGraph(4, list(star)))
    assert edge_pairs(retained) == ((0, 1), (0, 2), (0, 3))


def test_retain_tie_prefers_smaller_edge():
    retained = retain_dominant_edges(
        manual_scores({(1, 2): 0.7, (0, 1): 0.7}), FakeGraph(3, [(0, 1), (1, 2)])
    )
    # node 1 ties; (0, 1) < (1, 2) wins, node 2 keeps its only edge
    assert edge_pairs(retained) == ((0, 1), (1, 2))


def test_retain_considers_both_directions():
    # node 1's incident edges include the one it emits
    retained = retain_dominant_edges(
        manual_scores({(0, 1): 0.2, (1, 2): 0.9}), FakeGraph(3, [(0, 1), (1, 2)])
    )
    # node 0's only incident edge survives even though node 1 prefers (1, 2)
    assert edge_pairs(retained) == ((0, 1), (1, 2))


def test_retain_bound_and_dedup():
    for seed in range(20):
        g = random_dag(16, seed=seed)
        rng = np.random.default_rng(seed)
        scores = manual_scores(
            {e: float(s) for e, s in zip(g.edges, rng.uniform(0.01, 0.99, g.num_edges))}
        )
        retained = edge_pairs(retain_dominant_edges(scores, g))
        assert len(retained) == len(set(retained))
        assert len(retained) <= g.num_nodes
        assert retained == tuple(sorted(retained))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_retain_equals_per_edge_loop(n, data):
    """The lexsort keeps each node's best edge with the loop's tie-break:
    edges in any order, and scores from a few values so that ties abound."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    score = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    values = data.draw(st.lists(score, min_size=len(edges), max_size=len(edges)))
    tensor = Tensor(np.array(values).reshape(-1, 1))
    expected = retain_dominant_edges_reference(EdgeScores(tuple(edges), tensor))
    scores = EdgeScores(edge_array(edges), tensor)
    retained = retain_dominant_edges(scores, FakeGraph(n, edges))
    assert edge_pairs(retained) == expected


def test_retain_equals_per_edge_loop_on_large_levels():
    for seed in range(4):
        g = random_dag(300, seed=seed)
        rng = np.random.default_rng(seed)
        # two decimals: many ties among ~300 edges
        values = np.round(rng.random((g.num_edges, 1)), 2)
        expected = retain_dominant_edges_reference(EdgeScores(g.edges, Tensor(values)))
        scores = EdgeScores(edge_array(g.edges), Tensor(values))
        retained = retain_dominant_edges(scores, g)
        assert edge_pairs(retained) == expected


def test_parse_clusters_no_edges_gives_singletons():
    assign = parse_clusters(edge_array(()), FakeGraph(4, []))
    assert np.array_equal(assign.membership, [0, 1, 2, 3])
    assert assign.num_clusters == 4


def test_parse_clusters_components_and_ordering():
    assign = parse_clusters(edge_array(((2, 3),)), FakeGraph(5, [(2, 3)]))
    assert np.array_equal(assign.membership, [0, 1, 2, 2, 3])
    assign = parse_clusters(edge_array(((0, 4), (1, 2))), FakeGraph(5, []))
    assert np.array_equal(assign.membership, [0, 1, 1, 2, 0])


def test_parse_clusters_order_invariant():
    edges = [(0, 1), (1, 2), (3, 4)]
    base = parse_clusters(edge_array(edges), FakeGraph(5, edges))
    for perm in itertools.permutations(edges):
        assign = parse_clusters(edge_array(perm), FakeGraph(5, edges))
        assert np.array_equal(assign.membership, base.membership)


def test_pool_identity_assignment(diamond):
    assign = AssignMatrix(np.arange(4), 4)
    pooled = pool(assign, PooledGraph.of(diamond))
    assert np.array_equal(dense_from_edges(pooled), diamond.adjacency())
    assert pooled.num_nodes == 4


def test_pool_contracts_diamond(diamond):
    assign = AssignMatrix(np.array([0, 0, 1, 1]), 2)
    pooled = pool(assign, PooledGraph.of(diamond))
    # edges 0->2 (via 0->2) and 0->1 internal, 1->3 and 2->3 cross/internal
    assert np.array_equal(dense_from_edges(pooled), [[0, 1], [0, 0]])


def test_pool_zeroes_diagonal_and_binarizes():
    a = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]], dtype=float)
    assign = AssignMatrix(np.array([0, 0, 1]), 2)
    pooled = pool(assign, level_from_dense(a))
    # two node-level edges map to the same coarse edge; internal edge vanishes
    assert np.array_equal(dense_from_edges(pooled), [[0, 1], [0, 0]])


def test_pool_matches_cluster_pair_scan():
    for seed in range(30):
        g = random_dag(14, seed=seed)
        rng = np.random.default_rng(seed + 100)
        k = int(rng.integers(2, 7))
        membership = rng.integers(0, k, size=14)
        membership[:k] = np.arange(k)  # keep every cluster non-empty
        assign = parse_clusters(
            edge_array((i, j) for i in range(14) for j in range(14)
                       if i < j and membership[i] == membership[j]),
            g,
        )
        pooled = pool(assign, PooledGraph.of(g))
        assert np.array_equal(
            dense_from_edges(pooled), pooled_adjacency_oracle(assign, g.adjacency())
        )
        keys = pooled.src * pooled.num_nodes + pooled.dst
        assert (np.diff(keys) > 0).all()  # row-major order, no repeats


def test_pool_can_create_two_cycles():
    # chain 0->1->2 with clusters {0,2} and {1} pools to a mutual pair
    a = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    assign = AssignMatrix(np.array([0, 1, 0]), 2)
    pooled = pool(assign, level_from_dense(a))
    assert np.array_equal(dense_from_edges(pooled), [[0, 1], [1, 0]])
    assert pooled.two_cycle_pairs() == 1


def test_two_cycle_pairs_counts_unordered_pairs():
    assert level_from_dense([[0.0, 1.0], [1.0, 0.0]]).two_cycle_pairs() == 1
    three = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    assert level_from_dense(three).two_cycle_pairs() == 2
    dag = np.array([[0, 1], [0, 0]], dtype=float)
    assert level_from_dense(dag).two_cycle_pairs() == 0
    edgeless = PooledGraph(3, np.zeros(0, np.intp), np.zeros(0, np.intp))
    assert edgeless.two_cycle_pairs() == 0


def test_two_cycle_pairs_matches_dense_count():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = np.triu(rng.random((9, 9)) < 0.4, k=1) | (rng.random((9, 9)) < 0.15)
        np.fill_diagonal(a, False)
        both = np.logical_and(a, a.T)
        assert level_from_dense(a).two_cycle_pairs() == int(np.triu(both, k=1).sum())


def test_pooled_graph_of_sorts_edges():
    pg = PooledGraph(2, np.array([0, 1]), np.array([1, 0]))
    assert edge_pairs(np.stack((pg.src, pg.dst), axis=1)) == ((0, 1), (1, 0))
    pg = PooledGraph.of(FakeGraph(3, [(2, 0), (0, 2), (0, 1)]))
    assert edge_pairs(np.stack((pg.src, pg.dst), axis=1)) == ((0, 1), (0, 2), (2, 0))


def test_pool_features_matches_matrix_product():
    rng = np.random.default_rng(6)
    z = Tensor(rng.normal(size=(6, 4)))
    assign = AssignMatrix(np.array([0, 1, 0, 2, 1, 2]), 3)
    zp = pool_features(Tape(), z, assign)
    assert np.allclose(zp.data, one_hot(assign).T @ z.data, atol=1e-14)


def test_pool_features_gradient_flows_to_members():
    rng = np.random.default_rng(8)
    z = parameter(rng.normal(size=(5, 3)))
    assign = AssignMatrix(np.array([0, 1, 1, 0, 2]), 3)
    weight = Tensor(rng.normal(size=(3, 3)))

    def build(tape):
        return tape.sum(tape.mul(pool_features(tape, z, assign), weight))

    tape = Tape()
    tape.backward(build(tape))
    analytic = [z.grad.copy()]
    numeric = central_difference(lambda: float(build(Tape()).data[0, 0]), [z])
    assert max_rel_err(analytic, numeric) < 1e-7


def test_score_edges_finite_differences():
    rng = np.random.default_rng(12)
    z = parameter(rng.normal(size=(5, 3)))
    phi = init_mlp(rng, [3, 3, 1])
    g = PooledGraph.of(FakeGraph(5, [(0, 1), (1, 2), (2, 4), (0, 3)]))
    params = [z, *phi.parameters()]

    def build(tape):
        return tape.sum(score_edges(tape, z, g, phi).tensor)

    tape = Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in params]
    numeric = central_difference(lambda: float(build(Tape()).data[0, 0]), params)
    assert max_rel_err(analytic, numeric) < 1e-6
