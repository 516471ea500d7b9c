import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagplace.fixtures import (
    chain_graph,
    dominant_device_fixture,
    hand_solved_fixture,
    inception_like,
    random_cost_model,
    random_dag,
    split_fixture,
)
from dagplace import graph as graph_module
from dagplace import simulator as simulator_module
from dagplace.graph import (
    LEVEL_SWEEP_WIDTH,
    CompGraph,
    colocate,
    components,
    make_graph,
    topo_sort,
    volume,
)
from dagplace.simulator import (
    BRUTE_FORCE_LIMIT,
    SEARCH_CHUNK,
    CostModel,
    MissingCost,
    NonPositiveLatency,
    TooLarge,
    brute_force_optimal,
    eft_placement,
    load_cost_model,
    reward,
    save_cost_model,
    simulate,
    simulate_many,
    speedup,
)
from helpers import longest_path_latency, product_optimal, scan_optimal


def two_device_cm():
    return CostModel(
        compute=[[1.0, 2.0], [3.0, 1.0]],
        transfer=[[0.0, 0.5], [0.5, 0.0]],
    )


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(compute=np.zeros(3), transfer=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CostModel(compute=np.zeros((2, 2)), transfer=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CostModel(compute=np.zeros((2, 3)), transfer=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CostModel(compute=[[np.inf, 1.0]], transfer=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CostModel(compute=[[-1.0, 1.0]], transfer=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        CostModel(compute=[[1.0, 1.0]], transfer=[[0.1, 0.0], [0.0, 0.0]])
    cm = two_device_cm()
    assert cm.num_devices == 2 and cm.num_op_types == 2


def test_cost_model_round_trip(tmp_path):
    cm = two_device_cm()
    path = tmp_path / "cm.json"
    save_cost_model(cm, path)
    loaded = load_cost_model(path)
    assert np.array_equal(loaded.compute, cm.compute)
    assert np.array_equal(loaded.transfer, cm.transfer)


def test_volume():
    assert volume(()) == 1.0
    assert volume((5,)) == 5.0
    assert volume((2, 3, 4)) == 24.0
    assert volume((2, 0)) == 0.0


def test_simulate_single_node():
    g = make_graph([(0, 1, (3,))], [], num_op_types=2)
    cm = two_device_cm()
    assert simulate(g, [0], cm) == 3.0
    assert simulate(g, [1], cm) == 1.0


def test_simulate_chain_with_transfer():
    g = make_graph([(0, 0, (4,)), (1, 1, ())], [(0, 1)], num_op_types=2)
    cm = two_device_cm()
    # same device: 1 + 3
    assert simulate(g, [0, 0], cm) == 4.0
    # cross device: 1 + 0.5 * volume(4) + 1
    assert simulate(g, [0, 1], cm) == 4.0
    assert simulate(g, [1, 0], cm) == 2.0 + 0.5 * 4 + 3.0


def test_simulate_diamond_takes_slowest_branch(diamond):
    cm = CostModel(
        compute=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        transfer=[[0.0, 0.0], [0.0, 0.0]],
    )
    # branches cost 1 and 2; the merge waits for the slower one
    assert simulate(diamond, [0, 0, 0, 0], cm) == 4.0


def test_simulate_parallel_branches_ignore_each_other():
    g = make_graph(
        [(0, 0, ()), (1, 0, ()), (2, 0, ())], [(0, 1), (0, 2)], num_op_types=1
    )
    cm = CostModel(compute=[[2.0, 2.0]], transfer=[[0.0, 0.0], [0.0, 0.0]])
    # both leaves run concurrently after the root
    assert simulate(g, [0, 0, 1], cm) == 4.0


def test_simulate_reuses_the_cached_order(monkeypatch):
    g, cm = split_fixture()
    fresh = CompGraph(g.nodes, g.edges, g.num_op_types)  # nothing cached yet
    calls = []

    def counting_topo_sort(graph):
        calls.append(graph)
        return topo_sort(graph)

    monkeypatch.setattr(graph_module, "topo_sort", counting_topo_sort)
    placement = np.zeros(10, dtype=np.intp)
    first = simulate(fresh, placement, cm)
    assert len(calls) == 1
    assert simulate(fresh, placement, cm) == first
    assert simulate_many(fresh, placement[None], cm)[0] == first
    assert len(calls) == 1


def test_simulate_rejects_wrong_placement_length():
    g, cm = split_fixture()
    with pytest.raises(ValueError):
        simulate(g, [0, 1], cm)


def test_simulate_missing_cost():
    g = make_graph([(0, 4, ())], [], num_op_types=5)
    cm = two_device_cm()  # only 2 op types
    with pytest.raises(MissingCost):
        simulate(g, [0], cm)
    g2 = make_graph([(0, 0, ())], [], num_op_types=1)
    with pytest.raises(MissingCost):
        simulate(g2, [3], cm)


@pytest.mark.parametrize("kernel", [simulate, simulate_many])
def test_missing_cost_names_the_first_uncosted_node(kernel):
    """Both kernels report the node a per-node topological sweep meets first."""
    cm = two_device_cm()  # op types 0..1, devices 0..1

    def run(g, placement):
        if kernel is simulate:
            return simulate(g, placement, cm)
        return simulate_many(g, [placement], cm)

    # topological order 2, 0, 1
    chain = make_graph([(0, 0, ()), (1, 1, ()), (2, 0, ())], [(2, 0), (0, 1)], 2)
    with pytest.raises(MissingCost, match=r"^no cost for op_type 0 on device 2$"):
        run(chain, [2, 0, 0])
    with pytest.raises(MissingCost, match=r"^no cost for op_type 0 on device -1$"):
        run(chain, [2, 0, -1])
    typed = make_graph([(0, 0, ()), (1, 4, ()), (2, 3, ())], [(1, 0), (2, 1)], 5)
    with pytest.raises(MissingCost, match=r"^no cost for op_type 3 on device 0$"):
        run(typed, [0, 0, 0])
    with pytest.raises(MissingCost, match=r"^no cost for op_type 3 on device 1$"):
        run(typed, [0, 0, 1])
    # 130 nodes in 2 levels take the level sweep; topological order 1..129, 0
    wide = make_graph(
        [(0, 4, ())] + [(v, 0, ()) for v in range(1, 129)] + [(129, 3, ())], [(129, 0)], 5
    )
    assert wide.num_nodes + wide.num_edges >= LEVEL_SWEEP_WIDTH * wide.level_count
    with pytest.raises(MissingCost, match=r"^no cost for op_type 3 on device 0$"):
        run(wide, [0] * 130)
    with pytest.raises(MissingCost, match=r"^no cost for op_type 0 on device 2$"):
        run(wide, [0] * 7 + [2] + [0] * 122)
    if kernel is simulate_many:  # the first placement that has an uncosted node
        batch = [[0, 0, 0], [0, 1, 1], [0, 5, -1], [7, 0, 0]]
        with pytest.raises(MissingCost, match=r"^no cost for op_type 0 on device -1$"):
            simulate_many(chain, batch, cm)


def test_simulate_many_equals_simulate():
    rng = np.random.default_rng(5)
    graphs = [random_dag(int(n), seed=s) for s, n in enumerate(rng.integers(2, 30, 20))]
    graphs.append(make_graph([(v, v % 3, (v + 1,)) for v in range(6)], [], 3))  # edgeless
    for trial, g in enumerate(graphs):
        for d in (2, 3):
            cm = random_cost_model(8, num_devices=d, seed=trial)
            for k in (0, 1, 33):
                placements = rng.integers(0, d, size=(k, g.num_nodes))
                many = simulate_many(g, placements, cm)
                assert many.shape == (k,) and many.dtype == np.float64
                assert many.tolist() == [simulate(g, p, cm) for p in placements]


def test_simulate_many_rejects_wrong_shape():
    g, cm = split_fixture()
    with pytest.raises(ValueError):
        simulate_many(g, np.zeros(10, dtype=np.intp), cm)
    with pytest.raises(ValueError):
        simulate_many(g, np.zeros((4, 9), dtype=np.intp), cm)
    with pytest.raises(ValueError):
        simulate_many(g, np.zeros((2, 4, 10), dtype=np.intp), cm)


def test_simulate_matches_recursive_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 18))
        g = random_dag(n, seed=trial, num_edges=int(rng.integers(1, 2 * n)))
        d = int(rng.integers(2, 4))
        cm = random_cost_model(8, num_devices=d, seed=trial)
        placement = rng.integers(0, d, size=n)
        ours = simulate(g, placement, cm)
        ref = longest_path_latency(g, placement, cm)
        assert ours == pytest.approx(ref, abs=1e-12)


def test_simulate_matches_recursive_oracle_on_the_level_path():
    for seed in range(4):
        g = random_dag(300, seed=seed)
        assert g.num_nodes + g.num_edges >= LEVEL_SWEEP_WIDTH * g.level_count
        cm = random_cost_model(8, num_devices=3, seed=seed)
        for placement in np.random.default_rng(seed).integers(0, 3, size=(5, 300)):
            assert simulate(g, placement, cm) == longest_path_latency(g, placement, cm)


@pytest.mark.parametrize("form", ["raw", "colocated"])
def test_simulate_matches_recursive_oracle_on_the_node_path(form):
    """inception_like graphs are too deep for the level sweep, and most of
    their nodes have one predecessor."""
    for seed in range(4):
        g = inception_like(1000, seed=seed)
        if form == "colocated":
            g = colocate(g)[0]
        assert not g.shallow
        assert g.num_nodes + g.num_edges < LEVEL_SWEEP_WIDTH * g.level_count
        sole = sum(w is not None for _, _, _, w in g.node_table.rows)
        assert sole > g.num_nodes // 2
        cm = random_cost_model(8, num_devices=3, seed=seed)
        rng = np.random.default_rng(seed)
        for placement in rng.integers(0, 3, size=(5, g.num_nodes)):
            assert simulate(g, placement, cm) == longest_path_latency(g, placement, cm)


def _bits(x: float) -> bytes:
    """The float64 bit pattern: tells -0.0 from 0.0."""
    return struct.pack("<d", x)


def _sweep_case(graph, num_devices, seed, negative_zeros=(), huge_transfer=False):
    """A graph, a cost model from `random_cost_model` with the listed
    (op type, device) compute costs set to -0.0 and every zero transfer
    rate set to -0.0, and three seeded placements. With `huge_transfer` one
    cross-device rate is the largest float64, so a transfer of a volume
    above 1 overflows to inf."""
    cm = random_cost_model(8, num_devices, seed)
    compute, transfer = cm.compute.copy(), cm.transfer.copy()
    for t, d in negative_zeros:
        compute[t, d] = -0.0
    transfer[transfer == 0.0] = -0.0
    if huge_transfer:
        transfer[0, num_devices - 1] = np.finfo(np.float64).max
    placements = np.random.default_rng(seed).integers(
        0, num_devices, size=(3, graph.num_nodes)
    )
    return graph, CostModel(compute, transfer), placements


@st.composite
def sweep_cases(draw):
    kind = draw(st.sampled_from(["random_dag", "dense_dag", "inception_like", "chain"]))
    n = draw(st.integers(1, 80))
    seed = draw(st.integers(0, 2**16))
    if kind == "random_dag":
        g = random_dag(n, seed=seed)
    elif kind == "dense_dag":  # fan-ins above 1
        g = random_dag(n, seed=seed, num_edges=draw(st.integers(0, 3 * n)))
    elif kind == "inception_like":
        g = inception_like(n, seed=seed)
    else:
        g = chain_graph(n, seed=seed)
    if draw(st.booleans()):
        g = colocate(g)[0]
    d = draw(st.integers(2, 4))
    zeros = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, d - 1)), max_size=8))
    return _sweep_case(g, d, seed, zeros, draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(case=sweep_cases())
@example(case=_sweep_case(make_graph([], [], 8), 2, 0))
@example(case=_sweep_case(make_graph([(0, 3, (2,))], [], 8), 3, 1, [(3, 0), (3, 1), (3, 2)]))
@example(case=_sweep_case(make_graph([(v, v % 8, (v + 1,)) for v in range(9)], [], 8), 4, 2))
@example(case=_sweep_case(chain_graph(12, seed=3), 2, 3, [(t, 1) for t in range(8)], True))
@example(case=_sweep_case(colocate(random_dag(200, seed=4))[0], 3, 4, [], True))
# a fan-out: every successor has node 0 as its only predecessor
@example(case=_sweep_case(
    make_graph([(v, v % 8, (v + 2,)) for v in range(7)], [(0, v) for v in range(1, 7)], 8),
    3, 5, [(1, 2), (4, 0)], True,
))
# a chain of sole predecessors: -0.0 transfers and compute, an overflowing rate
@example(case=_sweep_case(
    make_graph([(v, v % 2, (3, v + 1)) for v in range(10)], [(v, v + 1) for v in range(9)], 8),
    2, 7, [(0, 0), (1, 1)], True,  # one finite latency, two inf
))
def test_level_sweep_equals_scalar_sweep(case):
    """Every kernel runs on every graph, whatever `simulate` picks, and
    returns the same float64 bits, -0.0 costs and inf latencies included:
    both sweeps of `simulate`, and `simulate_many` on the whole batch and
    on one-row batches."""
    g, cm, placements = case
    many = simulate_many(g, placements, cm)
    for p, batched in zip(placements, many.tolist()):
        scalar = simulator_module._scalar_sweep(g.node_table, p, cm)
        level = simulator_module._level_sweep(g.levels, p, cm)
        assert type(scalar) is float and type(level) is float
        assert _bits(level) == _bits(scalar)
        assert _bits(simulate(g, p, cm)) == _bits(scalar)
        assert _bits(batched) == _bits(scalar)
        (single,) = simulate_many(g, p[None], cm).tolist()
        assert _bits(single) == _bits(scalar)


def test_level_sweep_overflows_to_inf_without_a_warning():
    """So do `simulate_many` and the exhaustive search: a transfer that
    overflows is inf, with no RuntimeWarning (an error under the test
    configuration)."""
    g = make_graph([(0, 0, (4,)), (1, 0, ())], [(0, 1)], 1)
    huge = np.finfo(np.float64).max
    cm = CostModel([[1.0, 1.0]], [[0.0, huge], [huge, 0.0]])
    p = np.array([0, 1])
    assert simulator_module._level_sweep(g.levels, p, cm) == math.inf
    assert simulator_module._scalar_sweep(g.node_table, p, cm) == math.inf
    assert simulate_many(g, [p], cm).tolist() == [simulate(g, p, cm)] == [math.inf]
    placement, latency = brute_force_optimal(g, cm)
    assert placement.tolist() == [0, 0] and latency == 2.0


def _search_18_graph() -> CompGraph:
    """split_fixture and hand_solved_fixture as two components, the shape
    of the benchmark's exhaustive-search graph."""
    split, _ = split_fixture()
    hand, _, _, _ = hand_solved_fixture()
    base = split.num_nodes
    return make_graph(
        list(split.nodes) + [(base + v.id, v.op_type, v.output_shape) for v in hand.nodes],
        list(split.edges) + [(base + u, base + v) for u, v in hand.edges],
        3,
    )


@pytest.mark.parametrize(
    "make, sweep",
    [
        (lambda: random_dag(2000, seed=0), "_level_sweep"),
        (lambda: colocate(random_dag(2000, seed=0))[0], "_level_sweep"),
        (lambda: inception_like(1000, seed=0), "_scalar_sweep"),
        (_search_18_graph, "_scalar_sweep"),
    ],
)
def test_simulate_dispatches_on_graph_depth(monkeypatch, make, sweep):
    g = make()
    cm = random_cost_model(8, num_devices=2, seed=0)
    calls = []
    for name in ("_level_sweep", "_scalar_sweep"):
        kernel = getattr(simulator_module, name)
        monkeypatch.setattr(
            simulator_module, name,
            lambda *args, _name=name, _kernel=kernel: calls.append(_name) or _kernel(*args),
        )
    # validation builds none of the simulator's tables
    assert not {"shallow", "depths", "levels", "node_table"} & g.__dict__.keys()
    simulate(g, np.zeros(g.num_nodes, dtype=np.intp), cm)
    assert calls == [sweep]
    # each sweep builds only its own table; a deep graph's depth pass stops
    # early, so it keeps no depths
    assert ("levels" in g.__dict__) == (sweep == "_level_sweep")
    assert ("node_table" in g.__dict__) == (sweep == "_scalar_sweep")
    assert ("depths" in g.__dict__) == (sweep == "_level_sweep")
    assert g.level_count == g.depths.max() + 1


@pytest.mark.parametrize(
    "g",
    [
        make_graph([], [], 1),
        make_graph([(0, 0, ())], [], 1),
        make_graph([(v, 0, ()) for v in range(64)], [], 1),  # 64 nodes, 1 level
        make_graph([(v, 0, ()) for v in range(63)], [], 1),
        # 127 nodes plus 1 edge in 2 levels: exactly 64 a level
        make_graph([(v, 0, ()) for v in range(127)], [(0, 1)], 1),
        make_graph([(v, 0, ()) for v in range(126)], [(0, 1)], 1),
        make_graph([(v, 0, ()) for v in range(127)], [(0, 1), (1, 2)], 1),
        chain_graph(5, seed=0),
        random_dag(300, seed=0),
        random_dag(300, seed=0, num_edges=900),
        inception_like(100, seed=0),
        colocate(random_dag(2000, seed=0))[0],
    ],
)
def test_shallow_is_the_level_width_rule(g):
    """The depth pass that stops early decides as the whole pass would."""
    whole = CompGraph(g.nodes, g.edges, g.num_op_types)
    shallow = g.num_nodes + g.num_edges >= LEVEL_SWEEP_WIDTH * whole.level_count
    assert g.shallow == shallow
    if shallow:  # the pass ran to the end and is kept
        assert np.array_equal(g.__dict__["depths"], whole.depths)


def test_zero_transfer_latency_is_placement_free_on_identical_devices():
    g = random_dag(12, seed=3)
    compute = np.tile(np.random.default_rng(1).uniform(0.5, 2.0, size=(8, 1)), (1, 2))
    cm = CostModel(compute=compute, transfer=np.zeros((2, 2)))
    rng = np.random.default_rng(2)
    base = simulate(g, np.zeros(12, dtype=np.intp), cm)
    for _ in range(10):
        assert simulate(g, rng.integers(0, 2, size=12), cm) == pytest.approx(base)


def test_raising_compute_cost_never_helps():
    g, cm = split_fixture()
    placement = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    base = simulate(g, placement, cm)
    bumped = CostModel(cm.compute + 0.3, cm.transfer)
    assert simulate(g, placement, bumped) >= base


def test_reward_and_speedup():
    assert reward(4.0) == 0.25
    with pytest.raises(NonPositiveLatency):
        reward(0.0)
    assert speedup(2.0, 1.0) == 50.0
    assert speedup(1.0, 2.0) == -100.0
    assert speedup(5.0, 5.0) == 0.0
    # 100 * (base - latency) overflows here; the percentage itself does not
    assert math.isfinite(speedup(1e306, 4.27e306))
    assert speedup(1e306, 4.27e306) == pytest.approx(-327.0)
    with pytest.raises(NonPositiveLatency):
        speedup(0.0, 1.0)


def test_brute_force_single_node_picks_cheapest_device():
    g = make_graph([(0, 1, ())], [], num_op_types=2)
    placement, latency = brute_force_optimal(g, two_device_cm())
    assert np.array_equal(placement, [1]) and latency == 1.0


def test_brute_force_lex_smallest_on_ties():
    g = chain_graph(3, seed=0)
    compute = np.ones((8, 2))
    cm = CostModel(compute, np.zeros((2, 2)))
    placement, latency = brute_force_optimal(g, cm)
    assert np.array_equal(placement, [0, 0, 0])
    assert latency == 3.0


def test_brute_force_guard():
    g = chain_graph(25, seed=0)
    cm = random_cost_model(8, num_devices=2, seed=0)
    assert 2**25 > BRUTE_FORCE_LIMIT
    with pytest.raises(TooLarge):
        brute_force_optimal(g, cm)


@pytest.mark.parametrize("devices", [0, -1])
def test_brute_force_rejects_fewer_than_one_device(devices):
    g = chain_graph(3, seed=0)
    cm = random_cost_model(8, num_devices=2, seed=0)
    with pytest.raises(ValueError, match=f"^num_devices must be at least 1, got {devices}$"):
        brute_force_optimal(g, cm, num_devices=devices)
    with pytest.raises(ValueError, match=f"got {devices}$"):
        brute_force_optimal(make_graph([], [], 1), cm, num_devices=devices)


def test_brute_force_matches_hand_solved_fixture():
    g, cm, optimal, latency = hand_solved_fixture()
    placement, found = brute_force_optimal(g, cm)
    assert np.array_equal(placement, optimal)
    assert found == pytest.approx(latency, abs=1e-12)
    assert simulate(g, optimal, cm) == pytest.approx(latency, abs=1e-12)


def test_brute_force_dominates_random_placements():
    g, cm = dominant_device_fixture()
    _, best = brute_force_optimal(g, cm)
    rng = np.random.default_rng(7)
    for _ in range(200):
        lat = simulate(g, rng.integers(0, 2, size=g.num_nodes), cm)
        assert lat >= best - 1e-12


def test_brute_force_empty_graph():
    g = make_graph([], [], num_op_types=1)
    placement, latency = brute_force_optimal(g, two_device_cm())
    assert placement.shape == (0,) and placement.dtype == np.intp
    assert latency == 0.0 and type(latency) is float


def test_brute_force_tie_across_chunks_keeps_the_first():
    """2**16 placements span two SEARCH_CHUNKs and all tie: all zeros wins."""
    g = chain_graph(16, seed=0)
    cm = CostModel(np.ones((8, 2)), np.zeros((2, 2)))
    assert 2**16 > SEARCH_CHUNK
    placement, latency = brute_force_optimal(g, cm)
    assert np.array_equal(placement, np.zeros(16, dtype=np.intp))
    assert latency == 16.0


def test_brute_force_bound_keeps_a_tie_it_rounds_above():
    """Node 1 heads the chain 1 -> 2 -> 3 of latency (0.3 + 0.2) + 0.1 =
    0.6, while its bound 0.3 + (0.2 + 0.1) rounds to 0.6000000000000001.
    EFT puts node 0, off the critical path, on its faster device 1; the
    smallest argmin keeps it on device 0 and is found only because a bound
    has to exceed the best latency by more than rounding to prune."""
    g = make_graph([(0, 0, ()), (1, 1, ()), (2, 2, ()), (3, 3, ())], [(1, 0), (1, 2), (2, 3)], 4)
    cm = CostModel([[0.2, 0.1], [0.3, 0.3], [0.2, 0.2], [0.1, 0.1]], np.zeros((2, 2)))
    assert eft_placement(g, cm)[0].tolist() == [1, 0, 0, 0]
    placement, latency = brute_force_optimal(g, cm)
    assert placement.tolist() == [0, 0, 0, 0] and latency == 0.6


def _duplicated_device(cm: CostModel) -> CostModel:
    """cm with its last device a copy of device 0, in compute and in
    transfers, so that swapping the two in a placement keeps its latency
    bit for bit."""
    swap = [cm.num_devices - 1, *range(1, cm.num_devices - 1), 0]
    compute = cm.compute.copy()
    compute[:, -1] = compute[:, 0]
    return CostModel(compute, np.maximum(cm.transfer, cm.transfer[swap][:, swap]))


def _search_cases(seed: int):
    """(graph, cost model, num_devices) triples for exhaustive searches:
    0 and 1 nodes, chains, disconnected graphs (fewer edges than nodes),
    random_dag's node ids, which are not in topological order, 2 and 3
    devices and 2 of 3, cost models whose placements all tie, duplicated
    devices, costs with many ties (halves), -0.0 costs and transfers that
    overflow to inf."""
    rng = np.random.default_rng(seed)
    yield make_graph([], [], 8), random_cost_model(8, 2, seed), None
    yield make_graph([(0, 5, (3,))], [], 8), random_cost_model(8, 3, seed), None
    # every placement ties: equal compute and zero transfers
    yield random_dag(7, seed=seed % 7), CostModel(np.ones((8, 3)), np.zeros((3, 3))), None
    yield chain_graph(9, seed=1), CostModel(np.full((8, 2), 0.1), np.zeros((2, 2))), None
    # each placement ties the one with the duplicated devices swapped
    yield random_dag(9, seed=4), _duplicated_device(random_cost_model(8, 2, seed)), None
    yield random_dag(6, seed=5), _duplicated_device(random_cost_model(8, 3, seed)), None
    yield inception_like(6, seed=6), _duplicated_device(random_cost_model(8, 3, seed)), 2
    # topological order 0, 1, 5, 4, 6, 7, 3, 2: at a few placements per chunk
    # the earliest of the tied minima lies in a later chunk than others
    compute = [[1, 2], [2, 1], [2, 2], [2, 1], [2, 2], [2, 1], [2, 1], [2, 1]]
    yield random_dag(8, seed=66, num_edges=14), CostModel(compute, np.zeros((2, 2))), None
    for trial in range(24):
        d = 2 + trial % 2
        n = int(rng.integers(1, 11 if d == 2 else 7))
        if trial % 6 == 0:
            g = chain_graph(n, seed=trial)
        else:
            g = random_dag(n, seed=trial, num_edges=int(rng.integers(0, 2 * n)))
        cm = random_cost_model(8, d, seed=trial)
        kind = trial // 2 % 4
        if kind == 1:  # every placement ties
            cm = CostModel(np.ones((8, d)), np.zeros((d, d)))
        elif kind == 2:  # many ties; a -0.0 compute cost and -0.0 transfers
            compute, transfer = np.round(2 * cm.compute) / 2, np.round(2 * cm.transfer) / 2
            compute[0, 0] = -0.0
            transfer[transfer == 0.0] = -0.0
            cm = CostModel(compute, transfer)
        elif kind == 3:  # a transfer of volume above 1 overflows to inf
            transfer = cm.transfer.copy()
            transfer[0, d - 1] = np.finfo(np.float64).max
            cm = CostModel(cm.compute, transfer)
        yield g, cm, None
        if d == 3:
            yield g, cm, 2


def test_brute_force_matches_product_reference(monkeypatch):
    """Placement and latency bits equal one `simulate` per placement in
    lexicographic order, also when chunks of a few placements make the
    earliest minimum lie in a later chunk than other tied ones."""
    for chunk in (SEARCH_CHUNK, 4, 1):
        monkeypatch.setattr(simulator_module, "SEARCH_CHUNK", chunk)
        for g, cm, devices in _search_cases(seed=chunk):
            placement, latency = brute_force_optimal(g, cm, num_devices=devices)
            ref_placement, ref_latency = product_optimal(g, cm, num_devices=devices)
            assert placement.dtype == np.intp and type(latency) is float
            assert np.array_equal(placement, ref_placement)
            assert _bits(latency) == _bits(ref_latency)
            assert placement.max(initial=0) < (devices or cm.num_devices)


def test_brute_force_matches_full_scan_over_many_chunks():
    """Graphs of 2**15 to 2**18 placements, the benchmark's search graph
    among them, and two devices of a three-device model on one: the same
    placement and latency as scoring every placement with `simulate_many`."""
    cases = [
        (_search_18_graph(), random_cost_model(8, 2, seed=1), None),
        (random_dag(16, seed=2), random_cost_model(8, 2, seed=2), None),
        (random_dag(17, seed=3, num_edges=9), random_cost_model(8, 2, seed=3), None),
        (inception_like(14, seed=4), random_cost_model(8, 2, seed=4), None),
        (random_dag(15, seed=5), random_cost_model(8, 3, seed=5), 2),
        # ties: nothing prunes, and pairs of placements with swapped devices
        (random_dag(16, seed=6), CostModel(np.ones((8, 2)), np.zeros((2, 2))), None),
        (inception_like(14, seed=7), _duplicated_device(random_cost_model(8, 2, seed=7)), None),
        (random_dag(10, seed=8), _duplicated_device(random_cost_model(8, 3, seed=8)), None),
        # five components of 13, 1, 2, 3 and 1 nodes
        (random_dag(20, seed=0), random_cost_model(8, 2, seed=0), None),
        (random_dag(20, seed=0), CostModel(np.ones((8, 2)), np.zeros((2, 2))), None),
    ]
    for g, cm, devices in cases:
        assert (devices or cm.num_devices) ** g.num_nodes >= SEARCH_CHUNK
        placement, latency = brute_force_optimal(g, cm, num_devices=devices)
        ref_placement, ref_latency = scan_optimal(g, cm, num_devices=devices)
        assert np.array_equal(placement, ref_placement) and latency == ref_latency


def test_brute_force_floor_keeps_a_component_under_the_optimum():
    """Node 0 alone is fastest on device 1 (0.5), but under the chain
    1 -> 2's optimum of 4.0 device 0 (1.0) fits too, and the smallest
    argmin of the whole graph takes it: the chain, the larger component, is
    searched first and its optimum is the floor of node 0's search."""
    g = make_graph([(0, 0, ()), (1, 1, ()), (2, 1, ())], [(1, 2)], 2)
    cm = CostModel([[1.0, 0.5], [2.0, 2.0]], np.zeros((2, 2)))
    assert eft_placement(g, cm)[0].tolist() == [1, 0, 0]
    placement, latency = brute_force_optimal(g, cm)
    assert placement.tolist() == [0, 0, 0] and latency == 4.0
    assert np.array_equal(placement, product_optimal(g, cm)[0])


def test_brute_force_searches_again_under_a_raised_floor():
    """The chain 0 -> 1 -> 2, searched first, is fastest all on device 1
    (1.5); node 3, searched after it, raises the floor to 9.0, under which
    the chain all on device 0 (3.0) fits and is the smaller placement."""
    g = make_graph([(0, 0, ()), (1, 0, ()), (2, 0, ()), (3, 1, ())], [(0, 1), (1, 2)], 2)
    cm = CostModel([[1.0, 0.5], [9.0, 9.0]], np.zeros((2, 2)))
    placement, latency = brute_force_optimal(g, cm)
    assert placement.tolist() == [0, 0, 0, 0] and latency == 9.0
    assert np.array_equal(placement, product_optimal(g, cm)[0])


def _component_cases():
    """(graph, cost model, num_devices) triples of several components:
    isolated nodes between the links of a chain, and random DAGs with
    fewer edges than nodes, under random, all-tied and half-step costs and
    a duplicated device, on 2 and 3 devices and 2 of 3."""
    ops = [3, 0, 5, 1, 7, 2, 4, 6]
    chain = make_graph([(v, ops[v], (2,)) for v in range(8)], [(1, 3), (3, 4), (4, 6)], 8)
    for d, devices in [(2, None), (3, None), (3, 2)]:
        cm = random_cost_model(8, d, seed=d)
        yield chain, cm, devices
        yield chain, CostModel(np.ones((8, d)), np.zeros((d, d))), devices
        heavy = cm.compute.copy()
        heavy[3] *= 10  # node 0, searched last, raises the floor
        yield chain, CostModel(heavy, cm.transfer), devices
    for seed in range(8):
        d = 2 + seed % 2
        n = 10 if d == 2 else 7
        g = random_dag(n, seed=seed, num_edges=n // 2 + seed % 3)
        cm = random_cost_model(8, d, seed=seed)
        yield g, cm, None
        yield g, CostModel(np.ones((8, d)), np.zeros((d, d))), None
        yield g, CostModel(np.round(2 * cm.compute) / 2, np.round(2 * cm.transfer) / 2), None
        yield g, _duplicated_device(cm), 2 if d == 3 else None


def test_brute_force_per_component_matches_product_reference(monkeypatch):
    """Placement and latency bits equal one `simulate` per placement of
    the whole graph, also at chunks of a few placements."""
    for chunk in (SEARCH_CHUNK, 4, 1):
        monkeypatch.setattr(simulator_module, "SEARCH_CHUNK", chunk)
        for g, cm, devices in _component_cases():
            assert len(list(_components_alone(g))) > 1
            placement, latency = brute_force_optimal(g, cm, num_devices=devices)
            ref_placement, ref_latency = product_optimal(g, cm, num_devices=devices)
            assert np.array_equal(placement, ref_placement)
            assert _bits(latency) == _bits(ref_latency)


def test_brute_force_missing_cost_names_the_first_placement_scanned():
    """The MissingCost of scoring placements in index order: an uncovered
    op type at device 0, else the last node on the first missing device."""
    g = random_dag(6, seed=3)
    assert {node.op_type for node in g.nodes} & {5, 6, 7}
    cm = random_cost_model(8, num_devices=2, seed=3)
    narrow = CostModel(cm.compute[:5], cm.transfer)  # no op types 5..7
    for model, devices in [(cm, 3), (cm, 4), (narrow, 2), (narrow, 3)]:
        index = np.arange(devices**g.num_nodes)
        placements = np.array(np.unravel_index(index, (devices,) * g.num_nodes)).T
        with pytest.raises(MissingCost) as scanned:
            simulate_many(g, placements, model)
        with pytest.raises(MissingCost, match=f"^{re.escape(str(scanned.value))}$"):
            brute_force_optimal(g, model, num_devices=devices)
    last = g.nodes[-1].op_type
    with pytest.raises(MissingCost, match=f"^no cost for op_type {last} on device 2$"):
        brute_force_optimal(g, cm, num_devices=4)


def test_brute_force_memory_is_set_by_the_chunk():
    """2**24 placements of a 24-node chain: the traced peak stays within
    five arrays of one float64 per chunk placement (the chunk positions'
    finish times, about two such arrays, the ranks and room for an arrival
    table), where one latency per placement would take 128 MiB."""
    g = chain_graph(24, seed=0)
    cm = random_cost_model(8, num_devices=2, seed=0)
    tracemalloc.start()
    try:
        brute_force_optimal(g, cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * SEARCH_CHUNK


def test_brute_force_respects_device_override():
    g = make_graph([(0, 0, ())], [], num_op_types=1)
    cm = CostModel(
        compute=[[3.0, 2.0, 1.0]],
        transfer=np.zeros((3, 3)),
    )
    placement, latency = brute_force_optimal(g, cm, num_devices=2)
    assert np.array_equal(placement, [1]) and latency == 2.0


def test_eft_placement_is_one_valid_device_per_node():
    for seed in range(4):
        g = random_dag(30, seed=seed)
        cm = random_cost_model(8, 3, seed=seed)
        for devices in (None, 2, 1):
            placement, latency = eft_placement(g, cm, num_devices=devices)
            assert placement.dtype == np.intp and placement.shape == (g.num_nodes,)
            assert placement.min() >= 0 and placement.max() < (devices or 3)
            again, same = eft_placement(g, cm, num_devices=devices)
            assert np.array_equal(placement, again) and type(latency) is float
            assert _bits(latency) == _bits(same)
    empty, latency = eft_placement(make_graph([], [], 1), two_device_cm())
    assert empty.shape == (0,) and empty.dtype == np.intp and latency == 0.0
    with pytest.raises(ValueError, match="^num_devices must be at least 1, got 0$"):
        eft_placement(chain_graph(3, seed=0), two_device_cm(), num_devices=0)


def test_eft_latency_is_simulate_s():
    """The search's incumbent: the latency of the EFT placement, as its
    pass computes it, equals `simulate`'s bit for bit, also with -0.0
    costs and transfers that overflow to inf."""
    for g, cm, devices in _search_cases(seed=3):
        placement, latency = eft_placement(g, cm, num_devices=devices)
        assert _bits(latency) == _bits(simulate(g, placement, cm))


def test_eft_placement_breaks_ties_toward_the_lowest_device():
    g = random_dag(12, seed=1)
    assert not eft_placement(g, CostModel(np.ones((8, 3)), np.zeros((3, 3))))[0].any()
    # device 0 is slower; devices 1 and 2 tie everywhere
    cm = CostModel(np.tile([2.0, 1.0, 1.0], (8, 1)), 1.0 - np.eye(3))
    assert (eft_placement(g, cm)[0] == 1).all()
    # a copy of device 0 is never taken
    cm = _duplicated_device(random_cost_model(8, 3, seed=1))
    assert (eft_placement(g, cm)[0] < 2).all()


def test_eft_placement_reaches_known_optima():
    """5.1 on `_search_18_graph` under split_fixture's costs,
    3.75 on dominant_device_fixture, and the hand-solved fixture's 2.9,
    which sums to 2.9000000000000004 in float64: the placements'
    latencies equal brute_force_optimal's bit for bit."""
    _, split_cm = split_fixture()
    hand, hand_cm, _, _ = hand_solved_fixture()
    cases = [
        (_search_18_graph(), split_cm, 5.1),
        (*dominant_device_fixture(), 3.75),
        (hand, hand_cm, 2.9000000000000004),
    ]
    for g, cm, latency in cases:
        placement, found = eft_placement(g, cm)
        assert found == simulate(g, placement, cm) == latency
        assert brute_force_optimal(g, cm)[1] == latency


def _components_alone(g: CompGraph):
    """Each weakly connected component of g: its node ids, ascending, and
    the graph of those nodes alone, renumbered from 0 in the same order."""
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    ids, count = components(g.num_nodes, edges[:, 0], edges[:, 1])
    for c in range(count):
        members = np.flatnonzero(ids == c).tolist()
        local = {v: i for i, v in enumerate(members)}
        nodes = [(local[v], g.nodes[v].op_type, g.nodes[v].output_shape) for v in members]
        edges_alone = [(local[u], local[v]) for u, v in g.edges if u in local]
        yield members, make_graph(nodes, edges_alone, g.num_op_types)


def test_eft_placement_is_per_component():
    """The search's incumbent: on a disconnected graph, the EFT placement
    restricted to a weakly connected component is EFT on that component
    built alone, and the latency is the largest of theirs."""
    graphs = [_search_18_graph(), random_dag(20, seed=0)]
    graphs += [random_dag(30, seed=seed, num_edges=18) for seed in range(4)]
    for seed, g in enumerate(graphs):
        cm = random_cost_model(8, 3, seed=seed)
        for model, devices in [(cm, None), (cm, 2), (_duplicated_device(cm), None),
                               (CostModel(np.ones((8, 3)), np.zeros((3, 3))), None)]:
            placement, latency = eft_placement(g, model, num_devices=devices)
            alone = []
            for members, part in _components_alone(g):
                part_placement, part_latency = eft_placement(part, model, num_devices=devices)
                assert placement[members].tolist() == part_placement.tolist()
                alone.append(part_latency)
            assert len(alone) > 1 and _bits(latency) == _bits(max(alone))


def test_eft_placement_missing_cost_is_brute_force_optimal_s():
    g = random_dag(6, seed=3)
    cm = random_cost_model(8, num_devices=2, seed=3)
    narrow = CostModel(cm.compute[:5], cm.transfer)  # no op types 5..7
    for model, devices in [(cm, 3), (cm, 4), (narrow, 2), (narrow, 3)]:
        with pytest.raises(MissingCost) as searched:
            brute_force_optimal(g, model, num_devices=devices)
        with pytest.raises(MissingCost, match=f"^{re.escape(str(searched.value))}$"):
            eft_placement(g, model, num_devices=devices)
