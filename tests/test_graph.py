import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagplace.fixtures import chain_graph, diamond_chain_graph, inception_like, random_dag
from dagplace.graph import (
    CompGraph,
    CycleDetected,
    DanglingEdge,
    DuplicateEdge,
    InvalidNode,
    OpNode,
    SelfLoop,
    colocate,
    components,
    load_graph,
    make_graph,
    save_graph,
    topo_sort,
    validate,
)
from helpers import (
    colocate_membership_reference,
    components_reference,
    edge_array,
    validate_reference,
)


def test_make_graph_accepts_tuples_and_opnodes():
    g1 = make_graph([(0, 1, (2, 3)), (1, 0, ())], [(0, 1)], num_op_types=2)
    g2 = make_graph(
        [OpNode(0, 1, (2, 3)), OpNode(1, 0, ())], [(0, 1)], num_op_types=2
    )
    assert g1 == g2
    assert g1.num_nodes == 2 and g1.num_edges == 1


def test_make_graph_sorts_nodes_by_id():
    g = make_graph([(1, 0, (2,)), (0, 1, (3,))], [(0, 1)], 2)
    assert [n.id for n in g.nodes] == [0, 1]
    assert g.op_types.tolist() == [1, 0] and g.volumes.tolist() == [3.0, 2.0]
    assert g == make_graph([(0, 1, (3,)), (1, 0, (2,))], [(0, 1)], 2)


def test_validate_rejects_nodes_out_of_id_order():
    g = CompGraph((OpNode(1, 0, (2,)), OpNode(0, 1, (3,))), ((0, 1),), 2)
    with pytest.raises(
        InvalidNode, match=r"^node at position 0 has id 1: nodes must be in id order$"
    ):
        validate(g)


def test_adjacency_and_degrees(diamond):
    a = diamond.adjacency()
    expected = np.zeros((4, 4))
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        expected[u, v] = 1.0
    assert np.array_equal(a, expected)
    succ, pred = diamond.succ, diamond.pred
    assert succ.lists() == [[1, 2], [3], [3], []]
    assert pred.lists() == [[], [0], [0], [1, 2]]
    assert succ.counts.tolist() == [2, 1, 1, 0] and pred.counts.tolist() == [0, 1, 1, 2]
    assert diamond.succ is succ and diamond.pred is pred  # built once, then cached


def test_neighbors_keep_edge_order():
    g = make_graph([(i, 0, ()) for i in range(3)], [(0, 2), (1, 2), (0, 1)], 1)
    assert g.succ.lists() == [[2, 1], [2], []]
    assert g.pred.lists() == [[], [0], [0, 1]]
    assert g.undirected.lists() == [[2, 1], [2, 0], [0, 1]]


def test_validate_rejects_sparse_ids():
    with pytest.raises(InvalidNode):
        make_graph([(0, 0, ()), (2, 0, ())], [], num_op_types=1)


def test_validate_rejects_bad_op_type():
    with pytest.raises(InvalidNode):
        make_graph([(0, 3, ())], [], num_op_types=3)
    with pytest.raises(InvalidNode):
        make_graph([(0, -1, ())], [], num_op_types=3)


def test_validate_rejects_negative_shape():
    with pytest.raises(InvalidNode):
        make_graph([(0, 0, (-1,))], [], num_op_types=1)


def test_validate_rejects_dangling_edge():
    with pytest.raises(DanglingEdge):
        make_graph([(0, 0, ()), (1, 0, ())], [(0, 2)], num_op_types=1)


def test_validate_rejects_self_loop():
    with pytest.raises(SelfLoop):
        make_graph([(0, 0, ())], [(0, 0)], num_op_types=1)


def test_validate_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        make_graph([(0, 0, ()), (1, 0, ())], [(0, 1), (0, 1)], num_op_types=1)


def test_cycle_detection_returns_witness():
    with pytest.raises(CycleDetected) as exc:
        make_graph(
            [(0, 0, ()), (1, 0, ()), (2, 0, ())],
            [(0, 1), (1, 2), (2, 0)],
            num_op_types=1,
        )
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    edges = {(0, 1), (1, 2), (2, 0)}
    assert all((u, v) in edges for u, v in zip(cycle, cycle[1:]))


def test_cycle_witness_follows_edge_order():
    # node 1 lies on two cycles; the walk takes its first successor in
    # edge order (3), not its smallest (2)
    with pytest.raises(CycleDetected) as exc:
        make_graph(
            [(i, 0, ()) for i in range(6)],
            [(0, 5), (5, 1), (1, 3), (1, 2), (2, 1), (3, 4), (4, 1)],
            num_op_types=1,
        )
    assert exc.value.cycle == [1, 3, 4, 1]
    assert str(exc.value) == "graph contains a cycle: 1 -> 3 -> 4 -> 1"


def test_topo_sort_chain_and_diamond(diamond):
    chain = make_graph(
        [(0, 0, ()), (1, 0, ()), (2, 0, ())], [(0, 1), (1, 2)], num_op_types=1
    )
    assert topo_sort(chain).order.tolist() == [0, 1, 2]
    assert topo_sort(diamond).order.tolist() == [0, 1, 2, 3]


def test_topo_sort_empty_graph():
    g = make_graph([], [], num_op_types=1)
    assert topo_sort(g).order.tolist() == []


def test_topo_sort_prefers_smallest_ready_id():
    g = make_graph(
        [(0, 0, ()), (1, 0, ()), (2, 0, ())], [(2, 0), (2, 1)], num_op_types=1
    )
    assert topo_sort(g).order.tolist() == [2, 0, 1]


def test_topo_rank_is_inverse_of_order():
    g = random_dag(20, seed=5)
    t = topo_sort(g)
    for pos, v in enumerate(t.order):
        assert t.rank[v] == pos


def test_topo_order_respects_edges():
    g = random_dag(40, seed=7)
    rank = topo_sort(g).rank
    assert all(rank[u] < rank[v] for u, v in g.edges)


def test_colocate_chain_collapses_to_one_node():
    coarse, membership = colocate(chain_graph(100, seed=1))
    assert coarse.num_nodes == 1
    assert coarse.num_edges == 0
    assert membership == [0] * 100


def test_colocate_leaves_diamond_unchanged(diamond):
    coarse, membership = colocate(diamond)
    assert coarse.num_nodes == 4
    assert coarse.edges == diamond.edges
    assert membership == [0, 1, 2, 3]


def test_colocate_idempotent_on_random_graphs():
    for seed in range(10):
        g = random_dag(30, seed=seed)
        coarse, _ = colocate(g)
        again, membership = colocate(coarse)
        assert again.num_nodes == coarse.num_nodes
        assert again.edges == coarse.edges
        assert membership == list(range(coarse.num_nodes))


def test_colocate_mixed_graph_membership():
    # 0 -> 1 -> 2 chain hangs off a branch node: only 1,2 merge
    g = make_graph(
        [(0, 0, ()), (1, 0, ()), (2, 0, ()), (3, 0, ())],
        [(0, 1), (1, 2), (0, 3)],
        num_op_types=1,
    )
    coarse, membership = colocate(g)
    assert membership == [0, 1, 1, 2]
    assert coarse.num_nodes == 3
    assert coarse.edges == ((0, 1), (0, 2))


def _colocate_cases():
    for n in (1, 2, 7, 40, 300):
        for seed in range(3):
            yield pytest.param(random_dag(n, seed=seed), id=f"random_dag({n})-{seed}")
            yield pytest.param(
                random_dag(n, seed=seed, avg_degree=0.8), id=f"sparse_dag({n})-{seed}"
            )
            yield pytest.param(inception_like(n, seed=seed), id=f"inception_like({n})-{seed}")
            yield pytest.param(
                diamond_chain_graph(n, seed=seed), id=f"diamond_chain({n})-{seed}"
            )
    yield pytest.param(inception_like(1000), id="inception_like(1000)")
    yield pytest.param(random_dag(2000), id="random_dag(2000)")


@pytest.mark.parametrize("graph", list(_colocate_cases()))
def test_colocate_membership_equals_topological_scan(graph):
    """The edge mask finds the same co-location sets as the scan in
    topological order that pairs each node with its only successor."""
    _, membership = colocate(graph)
    assert membership == colocate_membership_reference(graph)


@pytest.mark.parametrize(
    "types,expected",
    [
        ((1, 2), 1),  # mean 1.5 rounds down
        ((2, 3, 3), 3),  # mean 2.67 rounds up
        ((1, 1, 2), 1),  # mean 1.33 rounds down
        ((0, 3), 1),  # mean 1.5 rounds down
        ((2, 2, 2), 2),
    ],
)
def test_colocate_merged_type_is_rounded_mean(types, expected):
    n = len(types)
    g = make_graph(
        [(v, types[v], (v + 1,)) for v in range(n)],
        [(v, v + 1) for v in range(n - 1)],
        num_op_types=4,
    )
    coarse, _ = colocate(g)
    assert coarse.num_nodes == 1
    assert coarse.nodes[0].op_type == expected


def test_colocate_merged_shape_is_last_members():
    g = make_graph(
        [(0, 0, (7,)), (1, 0, (5, 5)), (2, 0, (9, 1))],
        [(0, 1), (1, 2)],
        num_op_types=1,
    )
    coarse, _ = colocate(g)
    assert coarse.nodes[0].output_shape == (9, 1)


def test_colocate_coarse_ids_follow_min_member():
    # two separate merge chains; the one containing node 0 gets coarse id 0
    g = make_graph(
        [(v, 0, ()) for v in range(6)],
        [(0, 2), (2, 4), (1, 3), (3, 5)],
        num_op_types=1,
    )
    coarse, membership = colocate(g)
    assert membership == [0, 1, 0, 1, 0, 1]
    assert coarse.num_nodes == 2


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 1000))
def test_colocate_membership_is_well_formed(n, seed):
    g = random_dag(n, seed=seed)
    coarse, membership = colocate(g)
    assert len(membership) == n
    assert sorted(set(membership)) == list(range(coarse.num_nodes))
    # merged groups never span distinct coarse edges' endpoints
    for u, v in g.edges:
        cu, cv = membership[u], membership[v]
        if cu != cv:
            assert (cu, cv) in coarse.edges


@st.composite
def pair_lists(draw):
    """A node count and undirected pairs: random pairs (repeats and
    self-pairs included), chains through a random node order, or both."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        cut = draw(st.integers(1, n))
        pairs += list(zip(order[: cut - 1], order[1:cut]))
    return n, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(case=pair_lists())
@example(case=(0, []))
@example(case=(6, []))
@example(case=(6, [(4, 5)]))
@example(case=(5, [(4, 3), (3, 2), (2, 1), (1, 0)]))
def test_components_equal_union_find(case):
    """Ids and count equal the per-pair union-find's: ids follow each
    component's minimum member, isolated nodes are singletons."""
    n, pairs = case
    ids, count = components(n, *edge_array(pairs).T)
    expected_ids, expected_count = components_reference(n, pairs)
    assert count == expected_count
    assert ids.dtype == np.intp and np.array_equal(ids, expected_ids)


@pytest.mark.parametrize("n", [1, 2, 5000])
def test_components_of_long_chains(n):
    """One chain in ascending, descending and shuffled node order (as two
    index arrays, as co-location passes it) is one component."""
    rng = np.random.default_rng(n)
    for order in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
        ids, count = components(n, order[:-1], order[1:])
        assert count == 1 and np.array_equal(ids, np.zeros(n, dtype=np.intp))
    # two interleaved chains: even and odd nodes
    v = np.arange(n - 2)
    ids, count = components(n, v, v + 2)
    assert (count, ids.tolist()) == (min(n, 2), [v % 2 for v in range(n)])


def test_save_load_round_trip(tmp_path, diamond):
    path = tmp_path / "g.json"
    save_graph(diamond, path)
    assert load_graph(path) == diamond
    # the serialized form is stable across a second save
    text = path.read_text()
    save_graph(load_graph(path), path)
    assert path.read_text() == text


def test_load_graph_sorts_node_ids(tmp_path):
    path = tmp_path / "g.json"
    data = {
        "num_op_types": 2,
        "nodes": [
            {"id": 1, "op_type": 0, "output_shape": []},
            {"id": 0, "op_type": 1, "output_shape": [4]},
        ],
        "edges": [[0, 1]],
    }
    path.write_text(json.dumps(data))
    g = load_graph(path)
    assert [n.id for n in g.nodes] == [0, 1]
    assert g.nodes[0].op_type == 1


def test_load_graph_rejects_malformed_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": [{"id": 0}], "edges": []}))
    with pytest.raises(InvalidNode):
        load_graph(path)


def test_load_graph_validates_cycles(tmp_path):
    path = tmp_path / "g.json"
    data = {
        "num_op_types": 1,
        "nodes": [
            {"id": 0, "op_type": 0, "output_shape": []},
            {"id": 1, "op_type": 0, "output_shape": []},
        ],
        "edges": [[0, 1], [1, 0]],
    }
    path.write_text(json.dumps(data))
    with pytest.raises(CycleDetected):
        load_graph(path)


def test_validate_passes_valid_graph_constructed_directly(diamond):
    g = CompGraph(diamond.nodes, diamond.edges, diamond.num_op_types)
    validate(g)


@st.composite
def faulty_graphs(draw):
    """Small graphs with several faults at once: sparse, repeated or
    out-of-range ids, nodes out of id order, op types outside [0, 3),
    negative shape entries, dangling edges, self-loops, duplicate edges
    and cycles."""
    n = draw(st.integers(0, 7))
    ids = draw(st.permutations(range(n)))
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        ids[draw(st.integers(0, n - 1))] = draw(st.integers(-2, n + 1))
    nodes = tuple(
        OpNode(i, draw(st.integers(-1, 3)), tuple(draw(st.lists(st.integers(-1, 4), max_size=2))))
        for i in ids
    )
    end = st.integers(-1, n)
    edges = draw(st.lists(st.tuples(end, end), max_size=10))
    if edges and draw(st.booleans()):
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(edges)))
    return nodes, tuple(edges)


def _raised(fn, graph):
    try:
        fn(graph)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(case=faulty_graphs())
@example(case=((OpNode(0, 5, (-1,)), OpNode(0, 0, ())), ((0, 0),)))
@example(case=((OpNode(0, 0, (-1,)), OpNode(1, 9, ())), ((0, 2), (1, 1))))
@example(case=((OpNode(0, 0, ()), OpNode(1, 0, ())), ((0, 1), (0, 1), (1, 0))))
def test_validate_raises_what_the_ordered_scan_raises(case):
    """The one-pass checks of `validate` fall back to an ordered scan, so
    it raises the class and message of a node-by-node, edge-by-edge check;
    only the message for non-dense ids is shorter."""
    nodes, edges = case
    ours = _raised(validate, CompGraph(nodes, edges, 3))
    ref = _raised(validate_reference, CompGraph(nodes, edges, 3))
    if ref and ref[1].startswith("node ids must be exactly"):
        assert ours[0] is InvalidNode and "is missing" in ours[1], ours
    else:
        assert ours == ref


@pytest.mark.parametrize(
    "ids, missing, extra",
    [
        ([0, 1, 1, 3], 2, "id 1 is repeated"),
        ([0, 2], 1, "id 2 is out of range"),
        ([-1, 0, 1], 2, "id -1 is out of range"),
        ([3, 0, 1, 5], 2, "id 5 is out of range"),
    ],
)
def test_non_dense_ids_name_first_missing_and_first_extra(ids, missing, extra):
    with pytest.raises(InvalidNode) as exc:
        make_graph([(i, 0, ()) for i in ids], [], num_op_types=1)
    assert str(exc.value) == (
        f"node ids must be exactly 0..{len(ids) - 1}: id {missing} is missing, {extra}"
    )
