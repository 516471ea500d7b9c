import math

import numpy as np
import pytest

from dagplace.features import (
    FeatureConfig,
    TypeIndexOutOfRange,
    build_features,
    degree_one_hots,
    fractal_dimension,
    one_hot_types,
    positional_encoding,
    shape_features,
)
from dagplace.fixtures import chain_graph, random_dag
from dagplace.graph import CompGraph, OpNode, make_graph, topo_sort
from helpers import fractal_dimension_oracle


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
    assert fractal_dimension(g, 2) == 1.0


def test_fractal_dimension_isolated_and_star():
    lone = make_graph([(0, 0, ())], [], num_op_types=1)
    assert fractal_dimension(lone, 0) == 0.0
    star = star_graph(4)
    assert fractal_dimension(star, 0) == 0.0  # only radius 1 exists
    # a leaf sees the center at 1 and the other leaves at 2
    leaf = fractal_dimension(star, 1)
    expected = (math.log(4) - math.log(1)) / (math.log(2) - math.log(1))
    assert abs(leaf - expected) < 1e-12


def test_fractal_dimension_ignores_edge_direction():
    fwd = make_graph([(v, 0, ()) for v in range(3)], [(0, 1), (1, 2)], 1)
    rev = make_graph([(v, 0, ()) for v in range(3)], [(1, 0), (2, 1)], 1)
    for v in range(3):
        assert fractal_dimension(fwd, v) == fractal_dimension(rev, v)


def test_fractal_dimension_matches_regression_oracle():
    for seed in range(25):
        g = random_dag(24, seed=seed)
        for v in range(g.num_nodes):
            ours = fractal_dimension(g, v)
            ref = fractal_dimension_oracle(g, v)
            assert abs(ours - ref) < 1e-9, (seed, v)


def test_positional_encoding_rank_zero():
    cfg = FeatureConfig(d_pos=8)
    out = positional_encoding(0, cfg)
    assert np.array_equal(out, [0, 1, 0, 1, 0, 1, 0, 1])


def test_positional_encoding_entries():
    cfg = FeatureConfig(d_pos=16, pe_base=10000.0)
    out = positional_encoding(3, cfg)
    for i in range(8):
        angle = 3 / 10000.0 ** (2 * i / 16)
        assert out[2 * i] == pytest.approx(math.sin(angle), abs=1e-15)
        assert out[2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-15)


def test_positional_encoding_rejects_negative_rank():
    with pytest.raises(ValueError):
        positional_encoding(-1, FeatureConfig())


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
        assert fractal[v, 0] == fractal_dimension(diamond, v)

    rank = topo_sort(diamond).rank
    for v in range(4):
        assert np.array_equal(pos[v], positional_encoding(rank[v], cfg))


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
    assert np.array_equal(values[2, -4:], positional_encoding(0, cfg))
    assert np.array_equal(values[0, -4:], positional_encoding(1, cfg))
