import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dagplace import autograd, encoder, training
from dagplace.autograd import Tape, Tensor, Workspace
from dagplace.encoder import encode
from dagplace.features import FeatureConfig
from dagplace.fixtures import (
    dominant_device_fixture,
    inception_like,
    random_cost_model,
    random_dag,
    split_fixture,
)
from dagplace.graph import make_graph
from dagplace.nn import mlp_forward
from dagplace.partition import pool_features
from dagplace.policy import device_distribution, log_prob_of
from dagplace.simulator import CostModel, MissingCost
from dagplace.training import (
    EmptyBuffer,
    ModelConfig,
    TrainConfig,
    Trainer,
)
from helpers import (
    NanWorkspace,
    central_difference,
    dense_unfused,
    gather_rows_add_at,
    max_rel_err,
    scatter_add_rows_add_at,
)

SMALL = ModelConfig(hidden_channel=8, dropout_network=0.0, dropout_parsing=0.0)
NARROW = FeatureConfig(d_pos=4)


def small_trainer(graph=None, cm=None, seed=0, model=SMALL, **cfg_kwargs) -> Trainer:
    if graph is None:
        graph, cm = split_fixture()
    cfg = TrainConfig(max_episodes=2, update_timestep=4, seed=seed, **cfg_kwargs)
    return Trainer(graph, cm, cfg, model, NARROW)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_episodes=0)
    with pytest.raises(ValueError):
        TrainConfig(update_timestep=0)
    with pytest.raises(ValueError):
        TrainConfig(k_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError):
        TrainConfig(target_latency=0.0)
    TrainConfig(gamma=1.0, target_latency=2.5)


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_channel=0)
    with pytest.raises(ValueError):
        ModelConfig(layer_gnn=0)
    with pytest.raises(ValueError):
        ModelConfig(dropout_network=1.0)
    with pytest.raises(ValueError):
        ModelConfig(dropout_parsing=-0.1)
    with pytest.raises(ValueError, match="dtype"):
        ModelConfig(dtype="float16")


def test_trainer_rejects_bad_inputs():
    g, cm = split_fixture()
    with pytest.raises(ValueError):
        Trainer(make_graph([], [], 1), cm)
    single = CostModel(compute=np.ones((3, 1)), transfer=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        Trainer(g, single)
    narrow = CostModel(compute=np.ones((2, 2)), transfer=np.zeros((2, 2)))
    with pytest.raises(MissingCost, match=r"^cost model covers 2 op types, graph uses type 2$"):
        Trainer(g, narrow)


def test_step_records_and_best_tracking():
    tr = small_trainer()
    for i in range(4):
        rec = tr.step()
        assert rec.step_index == i + 1
        assert rec.reward == pytest.approx(1.0 / rec.latency)
        assert rec.num_clusters >= 1
        assert rec.norm.shape[0] == rec.features.shape[0]
    assert len(tr.buffer) == 4
    assert tr.best_latency == min(r.latency for r in tr.buffer)
    assert tr.best_placement.shape == (10,)
    assert set(np.unique(tr.best_placement)) <= {0, 1}
    assert tr.z_acc.any()


def test_step_on_edgeless_graph_resets_and_covers():
    g = make_graph([(v, 0, (2,)) for v in range(4)], [], num_op_types=1)
    cm = CostModel(compute=[[1.0, 2.0]], transfer=np.zeros((2, 2)))
    tr = small_trainer(g, cm)
    rec = tr.step()
    assert rec.num_clusters == 4  # nothing to merge without edges
    assert tr.best_placement.shape == (4,)
    # the edgeless pooled state cannot be parsed further, so the step
    # restarts from the original topology with carried embeddings
    assert tr.state_projects is False
    assert tr.state_features.shape == (4, SMALL.hidden_channel)
    np.testing.assert_array_equal(tr.composed.membership, np.arange(4))


def test_collapse_resets_with_normalized_carryover():
    g = make_graph([(0, 0, (1,)), (1, 0, (1,))], [(0, 1)], num_op_types=1)
    cm = CostModel(compute=[[1.0, 1.0]], transfer=np.zeros((2, 2)))
    tr = small_trainer(g, cm)
    rec = tr.step()
    # the only edge is retained from both endpoints, so the state collapses
    assert rec.num_clusters == 1
    assert tr.state_projects is False
    assert tr.state_level is tr.level0
    rms = np.sqrt(np.mean(np.square(tr.state_features)))
    assert rms == pytest.approx(1.0)


def test_carry_over_accumulates_lifted_cluster_embeddings():
    tr = small_trainer()
    rec = tr.step()
    # recompute the step's pooled embeddings; parameters have not changed
    tape = Tape()
    x = Tensor(rec.features)
    h = mlp_forward(tape, x, tr.projection) if rec.use_projection else x
    z = encode(tape, h, rec.norm, tr.gcn)
    zp = pool_features(tape, z, rec.assign)
    assert np.allclose(tr.z_acc, zp.data[rec.assign.membership], atol=1e-12)


def test_two_trainers_replay_identically():
    a = small_trainer(seed=3)
    b = small_trainer(seed=3)
    ra = a.run()
    rb = b.run()
    assert ra.history == rb.history
    assert np.array_equal(ra.best_placement, rb.best_placement)
    assert ra.best_latency == rb.best_latency


def test_evaluate_greedy_is_pure():
    a = small_trainer(seed=1)
    b = small_trainer(seed=1)
    first = a.evaluate_greedy()
    second = a.evaluate_greedy()
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]
    # interleaved greedy evaluations must not disturb the training stream
    for _ in range(4):
        a.step()
        a.evaluate_greedy()
        b.step()
    assert [r.latency for r in a.buffer] == [r.latency for r in b.buffer]


def _rollouts(force_record: bool):
    """Eight steps and one greedy evaluation with dropout on, keeping every
    tape the trainer makes; `force_record` makes each one record."""
    tapes = []

    class KeptTape(Tape):
        def __init__(self, record=True):
            super().__init__(record or force_record)
            tapes.append(self)

    g = random_dag(60, seed=2)
    cm = random_cost_model(g.num_op_types, 3, seed=2)
    model = ModelConfig(hidden_channel=8, dropout_network=0.3, dropout_parsing=0.2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "Tape", KeptTape)
        tr = Trainer(g, cm, TrainConfig(update_timestep=8), model, NARROW)
        records = [tr.step() for _ in range(8)]
        greedy = tr.evaluate_greedy()
    return tr, records, greedy, tapes


def test_rollouts_record_nothing_and_equal_recording_tapes():
    """Steps and greedy evaluation never run backward, so their tapes keep
    no entries, and they compute what recording tapes do, bit for bit: the
    records, the carried embeddings, the greedy placement and the update
    that follows."""
    tr, records, greedy, tapes = _rollouts(force_record=False)
    assert len(tapes) > len(records) and all(len(t) == 0 for t in tapes)
    ref, ref_records, ref_greedy, ref_tapes = _rollouts(force_record=True)
    assert all(len(t) > 0 for t in ref_tapes)
    for rec, r in zip(records, ref_records, strict=True):
        assert (rec.log_prob, rec.latency) == (r.log_prob, r.latency)
        assert rec.features.tobytes() == r.features.tobytes()
        assert np.array_equal(rec.action, r.action)
        assert np.array_equal(rec.assign.membership, r.assign.membership)
    assert tr.z_acc.tobytes() == ref.z_acc.tobytes()
    assert np.array_equal(greedy[0], ref_greedy[0]) and greedy[1] == ref_greedy[1]
    tr.update()
    ref.update()
    for p, q in zip(tr.parameters(), ref.parameters()):
        assert p.data.tobytes() == q.data.tobytes()


def test_stored_state_features_are_read_only():
    """Records share their state's features instead of copying them, so an
    in-place write to a stored feature array raises."""
    tr = small_trainer()
    records = [tr.step() for _ in range(4)]
    arrays = [tr.x0, tr.state_features] + [r.features for r in records]
    assert any(r.features is tr.x0 for r in records)
    for features in arrays:
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            features *= 2.0


def test_original_level_operator_is_built_once(monkeypatch):
    """The first step builds the original level's normalized adjacency;
    later restarts, their records and greedy evaluation share it."""
    built = []

    def normalize(level, *args):
        built.append(level)
        return encoder.normalize_adjacency(level, *args)

    monkeypatch.setattr(training, "normalize_adjacency", normalize)
    tr = small_trainer()
    records = [tr.step() for _ in range(12)]
    tr.evaluate_greedy()
    tr.evaluate_greedy()
    at_level0 = [r for r in records if r.norm.shape[0] == tr.graph.num_nodes]
    assert len(at_level0) >= 3  # the first step and at least two restarts
    assert all(r.norm is tr.norm0 for r in at_level0)
    assert [level is tr.level0 for level in built].count(True) == 1


def test_evaluate_greedy_peak_memory():
    """A greedy level on a non-recording tape keeps a few n x hidden arrays
    alive at once (about 4.7 of them at 400 nodes); a recording tape kept
    every layer's output, input and mask until the level ended (about 20)."""
    g = random_dag(400, seed=0)
    cm = random_cost_model(g.num_op_types, 2, seed=0)
    hidden = 32
    tr = Trainer(g, cm, TrainConfig(), ModelConfig(hidden_channel=hidden), NARROW)
    tr.evaluate_greedy()  # builds the original level's operator once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.evaluate_greedy()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.num_nodes * hidden * 8, peak


def test_greedy_placement_covers_graph():
    tr = small_trainer()
    placement, latency = tr.evaluate_greedy()
    assert placement.shape == (10,)
    assert latency > 0
    assert set(np.unique(placement)) <= {0, 1}


def test_update_requires_steps():
    tr = small_trainer()
    with pytest.raises(EmptyBuffer):
        tr.update()


def test_update_clears_buffer():
    tr = small_trainer()
    tr.step()
    tr.update()
    assert tr.buffer == []
    with pytest.raises(EmptyBuffer):
        tr.update()


def test_zero_rewards_leave_parameters_unchanged():
    tr = small_trainer()
    for _ in range(3):
        tr.step()
    for rec in tr.buffer:
        rec.reward = 0.0
    before = [p.data.copy() for p in tr.parameters()]
    tr.update()
    for p, b in zip(tr.parameters(), before):
        assert np.array_equal(p.data, b)


def test_single_record_baseline_cancels_gradient():
    tr = small_trainer(use_baseline=True)
    tr.step()
    before = [p.data.copy() for p in tr.parameters()]
    tr.update()  # baseline equals the lone reward, so the weight is zero
    for p, b in zip(tr.parameters(), before):
        assert np.array_equal(p.data, b)


def test_single_record_gradient_is_discounted_score():
    tr = small_trainer(model=replace(SMALL, dtype="float64"))
    rec = tr.step()
    tape = Tape()
    loss = tr.surrogate_loss(tape, tr.buffer)
    tr.adam.zero_grad()
    tape.backward(loss)
    surr = [p.grad.copy() for p in tr.parameters()]

    tape2 = Tape()
    x = Tensor(rec.features)
    h = mlp_forward(tape2, x, tr.projection) if rec.use_projection else x
    z = encode(tape2, h, rec.norm, tr.gcn)
    zp = pool_features(tape2, z, rec.assign)
    lp = log_prob_of(tape2, device_distribution(tape2, zp, tr.placer), rec.action)
    tr.adam.zero_grad()
    tape2.backward(lp)
    weight = -tr.cfg.gamma * rec.reward
    for g, p in zip(surr, tr.parameters()):
        assert np.allclose(g, weight * p.grad, atol=1e-12)


def test_surrogate_loss_value_matches_formula():
    tr = small_trainer()
    for _ in range(3):
        tr.step()
    loss = tr.surrogate_loss(Tape(), tr.buffer)
    # parameters are unchanged since the steps ran, so the recomputed
    # log-probs equal the recorded ones
    expected = -sum(
        r.log_prob * tr.cfg.gamma**r.step_index * r.reward for r in tr.buffer
    )
    assert loss.data[0, 0] == pytest.approx(expected, abs=1e-9)


def test_surrogate_finite_differences():
    g, cm = dominant_device_fixture()
    tr = Trainer(
        g,
        cm,
        TrainConfig(max_episodes=1, update_timestep=2, seed=2),
        ModelConfig(
            hidden_channel=4, dropout_network=0.0, dropout_parsing=0.0, dtype="float64"
        ),
        FeatureConfig(d_pos=2),
    )
    tr.step()
    tr.step()
    params = tr.parameters()
    tape = Tape()
    loss = tr.surrogate_loss(tape, tr.buffer)
    tr.adam.zero_grad()
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]
    numeric = central_difference(
        lambda: float(tr.surrogate_loss(Tape(), tr.buffer).data[0, 0]), params
    )
    assert max_rel_err(analytic, numeric) < 1e-4


def test_run_history_and_best_agree():
    tr = small_trainer(seed=5)
    result = tr.run()
    assert len(result.history) == 2 * 4
    assert [row.step for row in result.history] == list(range(1, 9))
    assert result.best_latency == min(row.latency for row in result.history)
    assert result.episodes == 2
    assert result.two_cycle_pairs >= 0


def test_run_stops_at_target_latency():
    tr = small_trainer(seed=0, target_latency=1e9)
    result = tr.run()
    assert result.episodes == 1


def test_k_epochs_applies_repeated_updates():
    a = small_trainer(seed=4, k_epochs=1, learning_rate=0.05)
    b = small_trainer(seed=4, k_epochs=3, learning_rate=0.05)
    for _ in range(2):
        a.step()
        b.step()
    a.update()
    b.update()
    diffs = [
        np.abs(pa.data - pb.data).max()
        for pa, pb in zip(a.parameters(), b.parameters())
    ]
    assert max(diffs) > 0.0


def test_composed_membership_always_spans_original_nodes():
    tr = small_trainer(seed=6)
    for _ in range(8):
        tr.step()
        assert tr.composed.membership.shape == (10,)
        assert tr.composed.num_clusters >= 1


# (step, episode, latency, reward, num_clusters) of the float64 run below. A
# rewrite of the training path must reproduce them; dropout and edge dropping
# are both on, so every RNG stream and the update between the episodes take
# part
GOLDEN_HISTORY = [
    (1, 1, 3.75, 0.26666666666666666, 2),
    (2, 1, 3.75, 0.26666666666666666, 1),
    (3, 1, 6.0, 0.16666666666666666, 2),
    (4, 1, 3.75, 0.26666666666666666, 1),
    (5, 1, 4.75, 0.21052631578947367, 3),
    (6, 1, 3.75, 0.26666666666666666, 2),
    (7, 2, 3.75, 0.26666666666666666, 1),
    (8, 2, 3.75, 0.26666666666666666, 1),
    (9, 2, 4.25, 0.23529411764705882, 2),
    (10, 2, 7.5, 0.13333333333333333, 1),
    (11, 2, 4.25, 0.23529411764705882, 3),
    (12, 2, 3.75, 0.26666666666666666, 1),
]


# the rows of the same run from the default, float32, network. They equal
# the float64 rows: no sampling draw or edge ranking of this run is close
# enough to a tie for float32 rounding to flip it
GOLDEN_HISTORY_FLOAT32 = [
    (1, 1, 3.75, 0.26666666666666666, 2),
    (2, 1, 3.75, 0.26666666666666666, 1),
    (3, 1, 6.0, 0.16666666666666666, 2),
    (4, 1, 3.75, 0.26666666666666666, 1),
    (5, 1, 4.75, 0.21052631578947367, 3),
    (6, 1, 3.75, 0.26666666666666666, 2),
    (7, 2, 3.75, 0.26666666666666666, 1),
    (8, 2, 3.75, 0.26666666666666666, 1),
    (9, 2, 4.25, 0.23529411764705882, 2),
    (10, 2, 7.5, 0.13333333333333333, 1),
    (11, 2, 4.25, 0.23529411764705882, 3),
    (12, 2, 3.75, 0.26666666666666666, 1),
]


def _golden_trainer(model: ModelConfig) -> Trainer:
    g, cm = dominant_device_fixture()
    return Trainer(g, cm, TrainConfig(max_episodes=2, update_timestep=6, seed=0), model, NARROW)


def _assert_golden(result, golden):
    assert len(result.history) == len(golden)
    for row, (step, episode, latency, reward, clusters) in zip(result.history, golden):
        assert (row.step, row.episode, row.num_clusters) == (step, episode, clusters)
        assert row.latency == pytest.approx(latency, rel=1e-12)
        assert row.reward == pytest.approx(reward, rel=1e-12)


def test_history_matches_golden_rows():
    model = ModelConfig(hidden_channel=8, dropout_parsing=0.3, dtype="float64")
    _assert_golden(_golden_trainer(model).run(), GOLDEN_HISTORY)


def test_float32_history_matches_golden_rows():
    tr = _golden_trainer(ModelConfig(hidden_channel=8, dropout_parsing=0.3))
    _assert_golden(tr.run(), GOLDEN_HISTORY_FLOAT32)
    assert all(p.data.dtype == np.float32 for p in tr.parameters())


def _step_and_update_peak_bytes(n: int) -> int:
    g = random_dag(n, seed=0)
    cm = random_cost_model(g.num_op_types, 2, seed=0)
    tr = Trainer(g, cm, TrainConfig(update_timestep=1, k_epochs=1), SMALL, NARROW)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = tr.step()
        tr.update()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the diagonal plus, per edge, two indices and a weight in each of the
    # operator's two pass schedules (product and transpose)
    assert rec.norm.nbytes <= 8 * (g.num_nodes + 6 * g.num_edges)
    return peak


def test_step_and_update_memory_is_linear_in_graph_size():
    """Peak allocation of one step plus one update at n and 2n nodes grows
    about 2x on edge lists; one dense n x n matrix would make it about 4x."""
    small, large = (_step_and_update_peak_bytes(n) for n in (400, 800))
    assert large < 3 * small, (small, large)


def _trainer_with_buffer(use_baseline: bool) -> Trainer:
    g = random_dag(40, seed=3)
    cm = random_cost_model(g.num_op_types, 3, seed=3)
    cfg = TrainConfig(
        update_timestep=5, k_epochs=2, learning_rate=0.01, use_baseline=use_baseline
    )
    model = ModelConfig(hidden_channel=8, dropout_network=0.3, dtype="float64")
    tr = Trainer(g, cm, cfg, model, NARROW)
    for _ in range(cfg.update_timestep):
        tr.step()
    return tr


@pytest.mark.parametrize("use_baseline", [False, True])
def test_update_equals_single_tape_reference(use_baseline):
    """update() accumulates one backward per record; the loss is a sum, so
    its parameters equal those of one tape over the whole buffer, up to
    summation order. Dropout is on, so the records must also draw their
    masks in the same order."""
    a, b = _trainer_with_buffer(use_baseline), _trainer_with_buffer(use_baseline)
    assert len(a.buffer) >= 4
    before = [p.data.copy() for p in b.parameters()]
    a.update()
    for _ in range(b.cfg.k_epochs):
        b.adam.zero_grad()
        tape = Tape()
        tape.backward(b.surrogate_loss(tape, b.buffer))
        b.adam.step()
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.abs(pa.data - pb.data).max() <= 1e-12 * np.abs(pb.data).max()
    # the reference moved the parameters, so the comparison is not vacuous
    assert any(not np.array_equal(p.data, p0) for p, p0 in zip(b.parameters(), before))
    assert a.dropout_rng.random() == b.dropout_rng.random()


def _update_peak_bytes(update_timestep: int) -> int:
    g = random_dag(400, seed=0)
    cm = random_cost_model(g.num_op_types, 2, seed=0)
    cfg = TrainConfig(update_timestep=update_timestep, k_epochs=1)
    tr = Trainer(g, cm, cfg, ModelConfig(hidden_channel=32), NARROW)
    for _ in range(update_timestep):
        tr.step()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.update()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_update_memory_does_not_grow_with_the_buffer():
    """Only one record's tape is alive at a time, so an update over 16
    records peaks about where one over 2 does; a single tape over the whole
    buffer would hold every record's intermediates (about 4.5x here)."""
    short, long = _update_peak_bytes(2), _update_peak_bytes(16)
    assert long < 1.25 * short, (short, long)


def _steps_and_update_with_dropout():
    g = random_dag(300, seed=0)
    cm = random_cost_model(g.num_op_types, 2, seed=0)
    model = ModelConfig(dropout_network=0.2, dropout_parsing=0.3, dtype="float64")
    tr = Trainer(g, cm, TrainConfig(update_timestep=20), model, NARROW)
    latencies = [tr.step().latency for _ in range(20)]
    tr.update()
    return latencies, [p.data.copy() for p in tr.parameters()]


def test_update_equals_add_at_and_unfused_references(monkeypatch):
    """The pass kernel and the one-entry dense layer change no bit of
    training: 20 steps and an update give the latencies and parameters of
    `np.add.at` row sums, separate matmul, add_bias and relu entries, and
    relu with a float dropout mask."""
    latencies, params = _steps_and_update_with_dropout()
    calls = {"scatter": 0, "dropout": 0}

    def scatter(*args, **kwargs):
        calls["scatter"] += 1
        return scatter_add_rows_add_at(*args, **kwargs)

    def dense(*args, **kwargs):
        calls["dropout"] += kwargs.get("keep") is not None
        return dense_unfused(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Tape, "scatter_add_rows", scatter)
        m.setattr(Tape, "gather_rows", gather_rows_add_at)
        m.setattr(Tape, "dense", dense)
        ref_latencies, ref_params = _steps_and_update_with_dropout()
    # 20 steps plus 4 epochs of 20 rebuilds, two GCN layers each
    assert calls == {"scatter": 100, "dropout": 200}
    assert latencies == ref_latencies
    for p, ref in zip(params, ref_params):
        assert p.tobytes() == ref.tobytes()


SMALL_LENT = ModelConfig(hidden_channel=16)
SHORT = TrainConfig(update_timestep=10, k_epochs=2)


@pytest.fixture
def lend_everything(monkeypatch):
    """Workspaces lend arrays of every size, so that the small graphs and
    widths of these tests run every primitive on lent arrays."""
    monkeypatch.setattr(autograd, "SMALL_ARRAY_BYTES", 0)
    monkeypatch.setattr(training, "SMALL_ARRAY_BYTES", 0)


def _trainer_on(graph, model: ModelConfig, cfg: TrainConfig = SHORT) -> Trainer:
    return Trainer(graph, random_cost_model(graph.num_op_types, 2, seed=0), cfg, model, NARROW)


def _steps_and_update_on_workspaces(graph, model: ModelConfig, workspace):
    """A buffer of steps and one update whose workspaces come from
    `workspace()` (a workspace class, or a function returning None)."""
    made = []

    def make():
        ws = workspace()
        made.append(ws)
        return ws

    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "Workspace", make)
        tr = _trainer_on(graph, model)
        records = [tr.step() for _ in range(tr.cfg.update_timestep)]
        tr.update()
    return tr, records, made


@pytest.mark.parametrize(
    "graph,model",
    [
        (random_dag(300, seed=0), ModelConfig(hidden_channel=16, dropout_parsing=0.3)),
        (inception_like(400, seed=0), SMALL_LENT),
    ],
    ids=["random-dag-300", "inception-400"],
)
def test_update_reads_no_lent_array_before_writing_it(lend_everything, graph, model):
    """With every lent array full of NaN bytes when lent and every buffer
    NaN between records, an update changes the parameters and the dropout
    stream exactly as one without a workspace: no primitive reads a reused
    array before writing it. The buffer's records span levels of several
    sizes, so buffers are reused for other shapes too."""
    tr, records, made = _steps_and_update_on_workspaces(graph, model, NanWorkspace)
    ref, _, _ = _steps_and_update_on_workspaces(graph, model, lambda: None)
    assert len({r.norm.shape[0] for r in records}) > 2
    assert len(made) == 1 and made[0].allocations > 0
    for p, q in zip(tr.parameters(), ref.parameters(), strict=True):
        assert p.data.tobytes() == q.data.tobytes()
    assert tr.dropout_rng.bit_generator.state == ref.dropout_rng.bit_generator.state


def test_no_workspace_array_escapes(lend_everything):
    """No buffer of an update's workspace backs an array that outlives the
    update: the parameters and their gradients, Adam's moments, the carried
    embeddings, the state's features and every record's features, before
    and after the update and a greedy evaluation. The state's features stay
    read-only."""
    made = []

    class Captured(Workspace):
        def __init__(self):
            super().__init__()
            made.append(self)

    tr = _trainer_on(random_dag(300, seed=0), ModelConfig(hidden_channel=16, dropout_parsing=0.3))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "Workspace", Captured)
        records = [tr.step() for _ in range(tr.cfg.update_timestep)]
        tr.update()
        records += [tr.step() for _ in range(5)]
        tr.evaluate_greedy()
    assert len(made) == 1 and made[0].buffers
    kept = [tr.z_acc, tr.state_features, *tr.adam.m, *tr.adam.v]
    kept += [a for p in tr.parameters() for a in (p.data, p.grad)]
    kept += [r.features for r in records]
    for buf in made[0].buffers:
        assert not any(np.shares_memory(buf, a) for a in kept)
    assert not tr.state_features.flags.writeable


def test_update_makes_its_buffers_in_the_first_pass(lend_everything):
    """An update's workspace makes every buffer while the first pass over
    the buffer runs; the later passes reuse them, counted by the
    workspace. A second update over records of the same shapes, on a
    workspace of its own, makes the same buffers at the same records."""
    made: list[list[int]] = []  # per update: buffers made, after each record

    class Counting(Workspace):
        def __init__(self):
            super().__init__()
            made.append([])

        def reset(self):
            super().reset()
            made[-1].append(self.allocations)

    cfg = TrainConfig(update_timestep=8, k_epochs=3)
    tr = _trainer_on(random_dag(300, seed=0), SMALL_LENT, cfg)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "Workspace", Counting)
        records = [tr.step() for _ in range(cfg.update_timestep)]
        tr.update()
        tr.buffer.extend(records)
        tr.update()
    first, second = made
    passes = len(records)
    assert len(first) == cfg.k_epochs * passes and first[0] > 0
    assert first[passes:] == [first[passes - 1]] * (len(first) - passes)
    assert second == first


def test_default_network_runs_in_float32_throughout(lend_everything, monkeypatch):
    """With the default dtype, two episodes and a greedy evaluation run
    every tape primitive on float32 operands into float32 outputs and
    gradients, apply float32 sparse operators, and lend no float64 array
    but the dropout draws: a float64 operand anywhere would upcast the
    network to float64 from there on, or cast in a slower loop."""
    float32 = np.dtype(np.float32)
    seen = {"entries": 0, "spmm": 0, "lent64": 0}
    drawing = []

    def floats(*arrays):
        return [a.dtype for a in arrays if a is not None and a.dtype.kind == "f"]

    def record(tape, out, inputs, back):
        assert floats(out.data, *(t.data for t in inputs)) == [float32] * (1 + len(inputs))
        seen["entries"] += 1

        def checked(g):
            grads = back(g)
            assert set(floats(g, *grads)) == {float32}
            return grads

        return original_record(tape, out, inputs, checked)

    def spmm(tape, m, a):
        assert set(floats(m.diag, m._passes.weights, m._transposed_passes.weights)) == {float32}
        seen["spmm"] += 1
        return original_spmm(tape, m, a)

    def lend(ws, shape, dtype=np.float64):
        if np.dtype(dtype) == np.float64:
            assert drawing, "a float64 array lent outside the dropout draws"
            seen["lent64"] += 1
        else:
            assert np.dtype(dtype) in (float32, np.dtype(bool))
        return original_lend(ws, shape, dtype)

    def keep_mask(*args, **kwargs):
        drawing.append(True)
        try:
            return original_keep_mask(*args, **kwargs)
        finally:
            drawing.pop()

    original_record, original_spmm = Tape._record, Tape.spmm
    original_lend, original_keep_mask = Workspace.lend, encoder.keep_mask
    monkeypatch.setattr(Tape, "_record", record)
    monkeypatch.setattr(Tape, "spmm", spmm)
    monkeypatch.setattr(Workspace, "lend", lend)
    monkeypatch.setattr(encoder, "keep_mask", keep_mask)
    cfg = TrainConfig(max_episodes=2, update_timestep=5)
    tr = _trainer_on(random_dag(300, seed=0), ModelConfig(hidden_channel=16, dropout_parsing=0.3), cfg)
    tr.run()
    tr.evaluate_greedy()
    assert min(seen.values()) > 0
    assert {p.grad.dtype for p in tr.parameters()} == {float32}
    assert {a.dtype for a in tr.adam.m + tr.adam.v} == {float32}
    assert tr.x0.dtype == float32


def test_carried_embeddings_stay_float64_and_finite():
    """A float32 trainer on a graph that collapses every few steps keeps
    its accumulator in float64, and every state it enters, reset or pooled,
    has finite features in the model dtype, over 100 episodes."""
    entered = []
    resets = []

    class Watched(Trainer):
        def _enter(self, level, features, projects, composed):
            entered.append(features)
            super()._enter(level, features, projects, composed)

        def _reset_to_original(self):
            resets.append(len(entered))
            super()._reset_to_original()

    g, cm = split_fixture()
    cfg = TrainConfig(max_episodes=100, update_timestep=4, learning_rate=0.01)
    tr = Watched(g, cm, cfg, ModelConfig(hidden_channel=8), NARROW)
    tr.run()
    assert tr.z_acc.dtype == np.float64 and np.isfinite(tr.z_acc).all()
    assert len(resets) >= 100, len(resets)
    for features in entered:
        assert features.dtype == np.float32 and np.isfinite(features).all()
