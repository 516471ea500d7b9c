import math
import tracemalloc

import numpy as np
import pytest

from dagplace.features import (
    FeatureConfig,
    TypeIndexOutOfRange,
    ball_sizes,
    build_features,
    degree_one_hots,
    fractal_dimensions,
    one_hot_types,
    positional_encodings,
    shape_features,
)
from dagplace.fixtures import (
    chain_graph,
    diamond_chain_graph,
    inception_like,
    random_dag,
)
from dagplace.graph import CompGraph, OpNode, colocate, make_graph, topo_sort
from helpers import (
    ball_sizes_reference,
    build_features_reference,
    colocate_reference,
    fractal_dimension_oracle,
    fractal_dimension_reference,
    positional_encoding_reference,
)


def star_graph(leaves: int) -> CompGraph:
    return make_graph(
        [(v, 0, ()) for v in range(leaves + 1)],
        [(0, v) for v in range(1, leaves + 1)],
        num_op_types=1,
    )


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(d_pos=3)
    with pytest.raises(ValueError):
        FeatureConfig(d_pos=0)
    with pytest.raises(ValueError):
        FeatureConfig(pe_base=0.0)
    assert FeatureConfig().d_pos == 16


def test_one_hot_types(diamond):
    out = one_hot_types(diamond)
    assert out.shape == (4, 3)
    assert np.array_equal(out.sum(axis=1), np.ones(4))
    for node in diamond.nodes:
        assert out[node.id, node.op_type] == 1.0


def test_one_hot_types_out_of_range():
    g = CompGraph((OpNode(0, 5, ()),), (), num_op_types=3)  # skips validation
    with pytest.raises(TypeIndexOutOfRange):
        one_hot_types(g)


def test_degree_one_hots_columns_are_sorted_distinct_values(diamond):
    in_oh, out_oh = degree_one_hots(diamond)
    # in-degrees [0,1,1,2] and out-degrees [2,1,1,0] both have 3 distinct values
    assert in_oh.shape == (4, 3) and out_oh.shape == (4, 3)
    assert np.array_equal(in_oh[:, 0], [1, 0, 0, 0])  # value 0
    assert np.array_equal(in_oh[:, 1], [0, 1, 1, 0])  # value 1
    assert np.array_equal(in_oh[:, 2], [0, 0, 0, 1])  # value 2
    assert np.array_equal(out_oh[:, 2], [1, 0, 0, 0])  # value 2 is largest


def test_shape_features_right_pad():
    g = make_graph(
        [(0, 0, (2,)), (1, 0, (2, 3, 4)), (2, 0, ())], [(0, 1)], num_op_types=1
    )
    out = shape_features(g)
    assert np.array_equal(out, [[2, 0, 0], [2, 3, 4], [0, 0, 0]])


def test_fractal_dimension_path_center_is_exactly_one():
    g = chain_graph(5, seed=0)
    assert fractal_dimensions(g)[2] == 1.0


def test_fractal_dimension_isolated_and_star():
    lone = make_graph([(0, 0, ())], [], num_op_types=1)
    assert fractal_dimensions(lone)[0] == 0.0
    star = star_graph(4)
    assert fractal_dimensions(star)[0] == 0.0  # only radius 1 exists
    # a leaf sees the center at 1 and the other leaves at 2
    leaf = fractal_dimensions(star)[1]
    expected = (math.log(4) - math.log(1)) / (math.log(2) - math.log(1))
    assert abs(leaf - expected) < 1e-12


def test_fractal_dimension_ignores_edge_direction():
    fwd = make_graph([(v, 0, ()) for v in range(3)], [(0, 1), (1, 2)], 1)
    rev = make_graph([(v, 0, ()) for v in range(3)], [(1, 0), (2, 1)], 1)
    for v in range(3):
        assert fractal_dimensions(fwd)[v] == fractal_dimensions(rev)[v]


def test_fractal_dimension_matches_regression_oracle():
    for seed in range(25):
        g = random_dag(24, seed=seed)
        dims = fractal_dimensions(g)
        for v in range(g.num_nodes):
            ours = dims[v]
            ref = fractal_dimension_oracle(g, v)
            assert abs(ours - ref) < 1e-9, (seed, v)


def components_graph() -> CompGraph:
    """Isolated nodes between a 70-node path, a 3-leaf star, a 2-node edge
    and a diamond: 90 nodes, so components straddle a word boundary."""
    edges = [(v, v + 1) for v in range(2, 71)]  # path 2..71
    edges += [(73, 74), (73, 75), (73, 76), (78, 79)]
    edges += [(81, 82), (81, 83), (82, 84), (83, 84)]
    return make_graph([(v, 0, ()) for v in range(90)], edges, num_op_types=1)


def bit_boundary_graphs():
    for n in (1, 2, 63, 64, 65, 127, 128, 129):
        yield pytest.param(random_dag(n, seed=n), id=f"random_dag({n})")
        yield pytest.param(chain_graph(n, seed=n), id=f"chain_graph({n})")
    yield pytest.param(make_graph([], [], num_op_types=1), id="empty")
    edgeless = make_graph([(v, 0, ()) for v in range(100)], [], num_op_types=1)
    yield pytest.param(edgeless, id="edgeless")
    yield pytest.param(components_graph(), id="components")
    yield pytest.param(star_graph(100), id="star(100)")
    for name, g in (
        ("random_dag(300)", random_dag(300, seed=1)),
        ("inception_like(300)", inception_like(300, seed=1)),
    ):
        yield pytest.param(g, id=name)
        yield pytest.param(colocate(g)[0], id=f"{name} co-located")


@pytest.mark.parametrize("g", list(bit_boundary_graphs()))
def test_ball_sizes_equal_per_node_bfs(g):
    """The all-sources bitset BFS gives every node the ball sizes and the
    fractal dimension, bit for bit, of one BFS from that node, across
    uint64 word boundaries and degenerate graphs."""
    balls, ecc = ball_sizes(g)
    dims = fractal_dimensions(g)
    assert ecc.shape == dims.shape == (g.num_nodes,)
    for v in range(g.num_nodes):
        assert np.array_equal(balls[1 : ecc[v] + 1, v], ball_sizes_reference(g, v)), v
        assert (balls[ecc[v] :, v] == balls[-1, v]).all(), v
        assert dims[v] == fractal_dimension_reference(g, v), v


def test_fractal_dimension_multiword_oracle():
    """Floyd-Warshall regression oracle on 65- to 160-node graphs, whose
    rows span two or three uint64 words (every 5th node is checked)."""
    for n in (65, 96, 129, 160):
        for g in (
            diamond_chain_graph(n, seed=n),
            inception_like(n, seed=n),
            random_dag(n, seed=n, avg_degree=1.3),
        ):
            dims = fractal_dimensions(g)
            for v in range(0, g.num_nodes, 5):
                ref = fractal_dimension_oracle(g, v)
                assert dims[v] == pytest.approx(ref, abs=1e-9), (n, v)


def test_fractal_dimensions_memory_below_one_byte_per_pair():
    """The bitset BFS holds bits, not bytes, per node pair: on a co-located
    2000-node random DAG its traced peak stays below n^2 bytes, which a
    dense n x n bool matrix alone would reach."""
    g = colocate(random_dag(2000, seed=0))[0]
    g.undirected  # the graph's own cache, built before tracing
    assert g.num_nodes >= 1800
    tracemalloc.start()
    try:
        fractal_dimensions(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.num_nodes**2, (peak, g.num_nodes**2)


def test_positional_encoding_rank_zero():
    cfg = FeatureConfig(d_pos=8)
    out = positional_encodings([0], cfg)[0]
    assert np.array_equal(out, [0, 1, 0, 1, 0, 1, 0, 1])


def test_positional_encoding_entries():
    cfg = FeatureConfig(d_pos=16, pe_base=10000.0)
    out = positional_encodings([3], cfg)[0]
    for i in range(8):
        angle = 3 / 10000.0 ** (2 * i / 16)
        assert out[2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
        assert out[2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)


def test_positional_encoding_rejects_negative_rank():
    with pytest.raises(ValueError):
        positional_encodings([-1], FeatureConfig())


def test_build_features_layout_and_segments(diamond):
    cfg = FeatureConfig(d_pos=4)
    values = build_features(diamond, cfg)
    # the diamond's segment widths: 3 op types, shapes of rank 2, in- and
    # out-degree values {0, 1, 2}, one fractal column, d_pos encodings
    widths = (3, 2, 3, 3, 1, 4)
    assert values.shape == (4, sum(widths))
    types, shapes, in_deg, out_deg, fractal, pos = np.split(
        values, np.cumsum(widths)[:-1], axis=1
    )
    assert np.array_equal(types, one_hot_types(diamond))
    assert np.array_equal(shapes, shape_features(diamond))
    assert np.array_equal(in_deg, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert np.array_equal(out_deg, [[0, 0, 1], [0, 1, 0], [0, 1, 0], [1, 0, 0]])
    for v in range(4):
        assert fractal[v, 0] == fractal_dimensions(diamond)[v]

    rank = topo_sort(diamond).rank
    for v in range(4):
        assert np.array_equal(pos[v], positional_encoding_reference(rank[v], cfg))


def test_build_features_empty_graph():
    g = make_graph([], [], num_op_types=2)
    values = build_features(g, FeatureConfig(d_pos=6))
    # no shapes and no degree values, so only the fixed-width segments
    assert values.shape == (0, 2 + 1 + 6)


def test_build_features_positions_follow_topo_rank():
    g = make_graph(
        [(0, 0, ()), (1, 0, ()), (2, 0, ())], [(2, 0), (2, 1)], num_op_types=1
    )
    cfg = FeatureConfig(d_pos=4)
    values = build_features(g, cfg)
    # topo order is (2, 0, 1), so node 2 carries the rank-0 encoding
    assert np.array_equal(values[2, -4:], positional_encoding_reference(0, cfg))
    assert np.array_equal(values[0, -4:], positional_encoding_reference(1, cfg))


def test_positional_encodings_equal_per_rank_reference():
    cfg = FeatureConfig(d_pos=16, pe_base=10000.0)
    ranks = list(range(0, 20000, 7))
    table = positional_encodings(ranks, cfg)
    for r, row in zip(ranks, table):
        assert row.tobytes() == positional_encoding_reference(r, cfg).tobytes(), r


def assert_setup_equals_reference(g: CompGraph) -> None:
    """Features and co-location of `g` and of its co-located graph equal
    the loop references byte for byte."""
    cfg = FeatureConfig()
    coarse, membership = colocate(g)
    assert (coarse, membership) == colocate_reference(g)
    for graph in (g, coarse):
        ours, ref = build_features(graph, cfg), build_features_reference(graph, cfg)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", (1, 2, 50, 400, 2000))
@pytest.mark.parametrize("gen", (random_dag, inception_like), ids=lambda f: f.__name__)
def test_setup_equals_loop_reference(gen, n, seed):
    assert_setup_equals_reference(gen(n, seed=seed))


def test_setup_equals_loop_reference_across_pairwise_sum_boundaries():
    """numpy sums up to 8 terms in a plain loop, up to 128 in eight
    unrolled lanes and splits longer sums in halves; the grouped fit sums
    each node's row in the same order as a one-node fit across all three."""
    cases = [chain_graph(4, seed=0), chain_graph(10, seed=0), chain_graph(130, seed=0),
             inception_like(2000, seed=0)]
    eccs = set().union(*(ball_sizes(g)[1].tolist() for g in cases))
    assert {2, 3, 7, 8, 9, 127, 128, 129} <= eccs and max(eccs) > 700
    for g in cases:
        assert_setup_equals_reference(g)


@pytest.mark.parametrize("nodes", (0, 1, 30), ids=("empty", "single", "edgeless"))
def test_setup_equals_loop_reference_without_edges(nodes):
    g = make_graph([(v, v % 3, (v, 2)) for v in range(nodes)], [], num_op_types=3)
    assert_setup_equals_reference(g)
