"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
pass/fail line so the suite doubles as a checklist.  Tolerances and budgets
are stated inline next to each check.
"""

import time

import numpy as np
import pytest

from dagplace.autograd import Tape, Tensor
from dagplace.cli import main
from dagplace.encoder import encode, init_gcn, normalize_adjacency
from dagplace.features import fractal_dimensions
from dagplace.fixtures import (
    chain_graph,
    diamond_chain_graph,
    dominant_device_fixture,
    hand_solved_fixture,
    inception_like,
    random_cost_model,
    random_dag,
    split_fixture,
)
from dagplace.graph import colocate, make_graph, save_graph
from dagplace.nn import init_mlp
from dagplace.partition import (
    EdgeScores,
    PooledGraph,
    parse_clusters,
    pool,
    retain_dominant_edges,
    score_edges,
)
from dagplace.policy import device_distribution, init_placer, log_prob_of
from dagplace.simulator import brute_force_optimal, save_cost_model, simulate, speedup
from dagplace.training import ModelConfig, TrainConfig, Trainer

from helpers import (
    central_difference,
    fractal_dimension_oracle,
    longest_path_latency,
    dense_from_edges,
    edge_array,
    max_rel_err,
    one_hot,
    pooled_adjacency_oracle,
)


def _report(capsys, label, check):
    """Run `check`, then print exactly one pass/fail line for it."""
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"\n[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n[acceptance] {label}: PASS")


def _analytic_gradients(tape, loss, tensors):
    tape.backward(loss)
    return [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]


def test_gradient_integrity(capsys):
    """Analytic gradients of every trainable stage match central finite
    differences (h=1e-5) to relative error < 1e-4 at 10 random parameter
    points per stage, in under 30 seconds."""

    def check():
        start = time.monotonic()
        graph = random_dag(6, seed=3)
        level = PooledGraph.of(graph)
        norm = normalize_adjacency(level)
        worst = 0.0

        for seed in range(10):
            rng = np.random.default_rng(seed)

            # GCN encoder: d(sum Z)/d(weights, inputs)
            gcn = init_gcn(rng, [5, 6, 4])
            x = Tensor(rng.uniform(-0.9, 0.9, (6, 5)))
            x.requires_grad = True
            params = gcn.parameters() + [x]

            def run_encoder():
                tape = Tape()
                z = encode(tape, x, norm, gcn)
                return tape, tape.sum(z)

            tape, loss = run_encoder()
            analytic = _analytic_gradients(tape, loss, params)
            numeric = central_difference(
                lambda: float(run_encoder()[1].data[0, 0]), params
            )
            worst = max(worst, max_rel_err(analytic, numeric))

            # edge scorer: d(sum scores)/d(phi, embeddings)
            z_in = Tensor(rng.uniform(-0.9, 0.9, (6, 4)))
            z_in.requires_grad = True
            phi = init_mlp(rng, [4, 4, 1])
            params = phi.parameters() + [z_in]

            def run_scorer():
                tape = Tape()
                scores = score_edges(tape, z_in, level, phi)
                return tape, tape.sum(scores.tensor)

            tape, loss = run_scorer()
            analytic = _analytic_gradients(tape, loss, params)
            numeric = central_difference(
                lambda: float(run_scorer()[1].data[0, 0]), params
            )
            worst = max(worst, max_rel_err(analytic, numeric))

            # placer log-prob: d(log p(placement))/d(placer, embeddings)
            zp = Tensor(rng.uniform(-0.9, 0.9, (5, 4)))
            zp.requires_grad = True
            placer = init_placer(rng, 4, 6, 3)
            placement = rng.integers(0, 3, 5)
            params = placer.parameters() + [zp]

            def run_placer():
                tape = Tape()
                dist = device_distribution(tape, zp, placer)
                return tape, log_prob_of(tape, dist, placement)

            tape, loss = run_placer()
            analytic = _analytic_gradients(tape, loss, params)
            numeric = central_difference(
                lambda: float(run_placer()[1].data[0, 0]), params
            )
            worst = max(worst, max_rel_err(analytic, numeric))

            # buffered policy loss: d(loss)/d(all trainer parameters)
            g, cm = dominant_device_fixture()
            trainer = Trainer(
                g,
                cm,
                cfg=TrainConfig(seed=seed),
                model=ModelConfig(
                    hidden_channel=4, dropout_network=0.0, dropout_parsing=0.0
                ),
            )
            for _ in range(3):
                trainer.step()
            records = list(trainer.buffer)
            params = trainer.parameters()
            # Move off the initialization point before differentiating.  The
            # zero-initialized biases put some ReLU pre-activations exactly
            # at the kink, where a two-sided difference measures the
            # subgradient average rather than the analytic one-sided choice;
            # a random offset makes the loss differentiable at the point.
            noise = np.random.default_rng(seed + 100)
            for t in params:
                t.data = t.data + noise.uniform(-0.05, 0.05, t.data.shape)

            def run_surrogate():
                tape = Tape()
                return tape, trainer.surrogate_loss(tape, records)

            tape, loss = run_surrogate()
            analytic = _analytic_gradients(tape, loss, params)
            numeric = central_difference(
                lambda: float(run_surrogate()[1].data[0, 0]), params
            )
            worst = max(worst, max_rel_err(analytic, numeric))

        elapsed = time.monotonic() - start
        assert worst < 1e-4, f"worst relative error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    _report(capsys, "gradient integrity", check)


def test_partition_invariants(capsys):
    """Over 1000 seeded random graphs (at most 32 nodes) with random edge
    scores: assignments are one-hot with no empty cluster, at most one
    retained edge per node, and the pooled adjacency equals a brute-force
    cluster-pair scan; all in under 60 seconds."""

    def check():
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for case in range(1000):
            n = int(rng.integers(2, 33))
            graph = random_dag(
                n,
                seed=case,
                avg_degree=float(rng.choice([0.8, 1.05, 1.5])),
            )
            edges = edge_array(graph.edges)
            scores = EdgeScores(
                edges, Tensor(rng.uniform(0.0, 1.0, (len(edges), 1)))
            )

            retained = retain_dominant_edges(scores, graph)
            assert len(retained) <= graph.num_nodes

            assign = parse_clusters(retained, graph)
            m = one_hot(assign)
            assert np.array_equal(m.sum(axis=1), np.ones(graph.num_nodes))
            assert (m.sum(axis=0) >= 1.0).all()
            assert np.array_equal(
                np.unique(assign.membership), np.arange(assign.num_clusters)
            )

            rng.standard_normal((graph.num_nodes, 3))  # keeps later cases' draws
            pooled = pool(assign, PooledGraph.of(graph))
            assert np.array_equal(
                dense_from_edges(pooled),
                pooled_adjacency_oracle(assign, graph.adjacency()),
            )

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _report(capsys, "partition invariants", check)


def test_fractal_dimension_against_oracle(capsys):
    """fractal_dimensions matches an independent all-pairs-BFS regression to
    1e-9 on 100 random graphs (at most 64 nodes); the center of a 5-node
    path scores exactly 1.0."""

    def check():
        rng = np.random.default_rng(7)
        for case in range(100):
            n = int(rng.integers(2, 65))
            if case % 3 == 0:
                graph = diamond_chain_graph(n, seed=case)
            elif case % 3 == 1:
                graph = inception_like(max(n, 4), seed=case)
            else:
                graph = random_dag(n, seed=case, avg_degree=1.3)
            dims = fractal_dimensions(graph)
            for v in range(graph.num_nodes):
                assert dims[v] == pytest.approx(
                    fractal_dimension_oracle(graph, v), abs=1e-9
                )

        path = chain_graph(5)
        assert fractal_dimensions(path)[2] == 1.0

    _report(capsys, "fractal dimension oracle", check)


def test_simulator_against_oracle(capsys):
    """simulate agrees with an independent longest-path recursion to 1e-12
    on 500 random (graph, placement, cost) triples, and brute_force_optimal
    is never beaten by 1000 random placements on any named fixture."""

    def check():
        rng = np.random.default_rng(11)
        for case in range(500):
            n = int(rng.integers(2, 13))
            graph = random_dag(n, seed=case, avg_degree=1.4)
            d = int(rng.integers(2, 4))
            cm = random_cost_model(8, num_devices=d, seed=case)
            placement = rng.integers(0, d, graph.num_nodes)
            assert simulate(graph, placement, cm) == pytest.approx(
                longest_path_latency(graph, placement, cm), rel=1e-12
            )

        fixtures = [
            dominant_device_fixture(),
            split_fixture(),
            hand_solved_fixture()[:2],
        ]
        for graph, cm in fixtures:
            _, best = brute_force_optimal(graph, cm)
            d = cm.num_devices
            for _ in range(1000):
                placement = rng.integers(0, d, graph.num_nodes)
                assert simulate(graph, placement, cm) >= best - 1e-12

    _report(capsys, "simulator oracle", check)


def test_end_to_end_learning(capsys):
    """REINFORCE training recovers strong placements: greedy equals the
    brute-force optimum on the dominant-device fixture in at least 9/10
    seeds within 100 episodes, and the best sampled latency is within 10%
    of optimal on the split-favoring fixture in at least 8/10 seeds within
    500 episodes, all in under 10 minutes."""

    def check():
        start = time.monotonic()
        model = ModelConfig(
            hidden_channel=16, dropout_network=0.0, dropout_parsing=0.2
        )

        def attempt(graph, cm, seed, max_episodes, success):
            cfg = TrainConfig(
                max_episodes=max_episodes,
                update_timestep=10,
                k_epochs=2,
                learning_rate=0.01,
                use_baseline=True,
                seed=seed,
            )
            trainer = Trainer(graph, cm, cfg=cfg, model=model)
            for _ in range(max_episodes):
                for _ in range(cfg.update_timestep):
                    trainer.step()
                trainer.update()
                if success(trainer):
                    return True
            return False

        graph, cm = dominant_device_fixture()
        _, optimum = brute_force_optimal(graph, cm)
        wins = sum(
            attempt(
                graph,
                cm,
                seed,
                100,
                lambda t: t.evaluate_greedy()[1] <= optimum + 1e-9,
            )
            for seed in range(10)
        )
        assert wins >= 9, f"dominant-device fixture solved in {wins}/10 seeds"

        graph, cm = split_fixture()
        _, optimum = brute_force_optimal(graph, cm)
        threshold = 1.1 * optimum + 1e-9
        wins = sum(
            attempt(graph, cm, seed, 500, lambda t: t.best_latency <= threshold)
            for seed in range(10)
        )
        assert wins >= 8, f"split fixture within 10% in {wins}/10 seeds"

        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"

    _report(capsys, "end-to-end learning", check)


def test_reference_arithmetic(capsys, tmp_path):
    """speedup reproduces the reference percentages to within one unit in
    their last decimal, and the stats command reports the reference average
    degrees from the matching node/edge counts."""

    def check():
        for base, improved, expected in [
            (0.0128, 0.0105, 17.9),
            (0.0160, 0.00766, 52.1),
            (0.00638, 0.00267, 58.2),
        ]:
            assert abs(speedup(base, improved) - expected) <= 0.1

        for n, e, expected in [
            (728, 764, "1.05"),
            (396, 411, "1.04"),
            (1009, 1071, "1.06"),
        ]:
            path = tmp_path / f"g{n}.json"
            save_graph(random_dag(n, seed=0, num_edges=e), path)
            assert main(["stats", str(path)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == f"nodes: {n}"
            assert out[1] == f"edges: {e}"
            assert out[2] == f"avg_degree: {expected}"

    _report(capsys, "reference arithmetic", check)


def test_training_determinism(capsys, tmp_path):
    """Two CLI training runs with the same seed and config write
    byte-identical step histories."""

    def check():
        graph, cm = dominant_device_fixture()
        gp, cp = tmp_path / "graph.json", tmp_path / "cm.json"
        save_graph(graph, gp)
        save_cost_model(cm, cp)
        for out in (tmp_path / "a", tmp_path / "b"):
            code = main([
                "train", "--graph", str(gp), "--cost-model", str(cp),
                "--out", str(out), "--seed", "12", "--max-episodes", "3",
                "--update-timestep", "4", "--hidden-channel", "8",
                "--d-pos", "4",
            ])
            assert code == 0
        a = (tmp_path / "a" / "history.csv").read_bytes()
        b = (tmp_path / "b" / "history.csv").read_bytes()
        assert a == b

    _report(capsys, "training determinism", check)


def test_colocation_contract(capsys):
    """Co-location collapses a 100-node chain to a single node, leaves the
    diamond untouched, and is idempotent."""

    def check():
        coarse, membership = colocate(chain_graph(100))
        assert coarse.num_nodes == 1
        assert np.array_equal(membership, np.zeros(100, dtype=int))

        diamond = make_graph(
            [(0, 0, (2,)), (1, 1, (3,)), (2, 2, (4,)), (3, 0, (2, 2))],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
            num_op_types=3,
        )
        coarse, membership = colocate(diamond)
        assert coarse.num_nodes == 4
        assert coarse.edges == diamond.edges
        assert coarse.nodes == diamond.nodes
        assert np.array_equal(membership, np.arange(4))

        for graph in (chain_graph(30, seed=4), random_dag(40, seed=4)):
            once, _ = colocate(graph)
            twice, membership = colocate(once)
            assert twice.num_nodes == once.num_nodes
            assert twice.edges == once.edges
            assert twice.nodes == once.nodes
            assert np.array_equal(membership, np.arange(once.num_nodes))

    _report(capsys, "co-location contract", check)
