"""The array representation of a graph against the per-node loops it
replaced (tests/helpers.py): loading, topological order, features,
co-location, pooling levels and the simulator's tables."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dagplace import fixtures
from dagplace.features import FeatureConfig, build_features
from dagplace.graph import OpNode, colocate, load_graph, save_graph
from dagplace.partition import PooledGraph
from helpers import (
    build_features_reference,
    colocate_reference,
    depths_reference,
    level_table_reference,
    load_graph_reference,
    neighbors_reference,
    node_table_rows_reference,
    pooled_level_reference,
    topo_sort_reference,
    undirected_neighbors_reference,
)


@st.composite
def shuffled_dag_files(draw):
    """Graph files of random DAGs: node ids in a random file order, edges
    from a hidden topological labelling in random order, isolated nodes
    wherever no edge lands, and the empty graph."""
    n = draw(st.integers(0, 40))
    ids = draw(st.permutations(range(n)))
    hidden = draw(st.permutations(range(n)))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=3 * n)) if n else []
    edges = sorted({(hidden[min(a, b)], hidden[max(a, b)]) for a, b in pairs if a != b})
    shape = st.lists(st.integers(0, 9), max_size=3)
    return {
        "num_op_types": 5,
        "nodes": [{"id": i, "op_type": draw(st.integers(0, 4)), "output_shape": draw(shape)}
                  for i in ids],
        "edges": [list(e) for e in draw(st.permutations(edges))],
    }


def file_data(g) -> dict:
    """What `save_graph` writes for `g`."""
    return {
        "num_op_types": g.num_op_types,
        "nodes": [{"id": v.id, "op_type": v.op_type, "output_shape": list(v.output_shape)}
                  for v in g.nodes],
        "edges": [list(e) for e in g.edges],
    }


@st.composite
def fixture_files(draw):
    """Graph files of `inception_like` and `random_dag` at 1 to 2000 nodes."""
    gen = draw(st.sampled_from([fixtures.inception_like, fixtures.random_dag]))
    n = draw(st.one_of(st.integers(1, 100), st.integers(1, 2000)))
    return file_data(gen(n, seed=draw(st.integers(0, 5))))


def assert_arrays_equal_loops(g) -> None:
    """Every derived structure of `g` equals its per-node loop reference."""
    succ, pred = neighbors_reference(g)
    assert g.succ.lists() == list(map(list, succ)) and g.pred.lists() == list(map(list, pred))
    assert g.undirected.lists() == list(map(list, undirected_neighbors_reference(g)))
    order, rank = topo_sort_reference(g)
    assert g.topo.order.tolist() == list(order) and g.topo.rank.tolist() == list(rank)
    cfg = FeatureConfig()
    ours, ref = build_features(g, cfg), build_features_reference(g, cfg)
    assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes()
    level, ref_level = PooledGraph.of(g), pooled_level_reference(g)
    assert level.num_nodes == ref_level.num_nodes
    assert np.array_equal(level.src, ref_level.src) and np.array_equal(level.dst, ref_level.dst)
    table = g.node_table
    assert table.rows == node_table_rows_reference(g)
    sources = set(g.src.tolist())
    assert table.sinks == tuple(v for v in range(g.num_nodes) if v not in sources)
    assert np.array_equal(g.depths, depths_reference(g))
    levels = g.levels
    expected = level_table_reference(g, depths_reference(g), g.level_count)
    got = (levels.order, levels.op_types, levels.src, levels.dst, levels.volumes,
           levels.heads, levels.node_bounds, levels.edge_bounds)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b) and np.asarray(a).dtype.kind == np.asarray(b).dtype.kind


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(shuffled_dag_files(), fixture_files()))
@example(data={"num_op_types": 1, "nodes": [], "edges": []})
@example(data=file_data(fixtures.random_dag(2000, seed=0)))
@example(data=file_data(fixtures.inception_like(2000, seed=0)))
@example(data={"num_op_types": 2, "edges": [],
               "nodes": [{"id": i, "op_type": i % 2, "output_shape": [i]} for i in (2, 0, 1)]})
def test_arrays_equal_per_node_loops(data):
    """A file loads into the graph the OpNode load builds, with the nodes
    sorted by id and the edges in file order; its topological order and
    ranks, feature bytes, co-location, pooling level and simulator tables
    equal the loop references', raw and co-located."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "graph.json")
        path.write_text(json.dumps(data))
        g = load_graph(path)
        assert g == load_graph_reference(path)
    nodes = sorted((OpNode(v["id"], v["op_type"], tuple(v["output_shape"]))
                    for v in data["nodes"]), key=lambda v: v.id)
    assert g.nodes == tuple(nodes)
    assert g.edges == tuple(map(tuple, data["edges"]))
    coarse, membership = colocate(g)
    assert (coarse, membership) == colocate_reference(g)
    for graph in (g, coarse):
        assert_arrays_equal_loops(graph)


GENERATORS = {
    "chain_graph": lambda: fixtures.chain_graph(50, seed=1),
    "diamond_chain_graph": lambda: fixtures.diamond_chain_graph(40, seed=2),
    "random_dag": lambda: fixtures.random_dag(300, seed=3),
    "inception_like": lambda: fixtures.inception_like(300, seed=4),
    "split_fixture": lambda: fixtures.split_fixture()[0],
    "dominant_device_fixture": lambda: fixtures.dominant_device_fixture()[0],
    "hand_solved_fixture": lambda: fixtures.hand_solved_fixture()[0],
}


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
def test_save_of_load_is_byte_identical(tmp_path, make):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_graph(make(), first)
    save_graph(load_graph(first), second)
    assert second.read_bytes() == first.read_bytes()
