"""REINFORCE training loop over an iteratively coarsened placement state.

Each step encodes the current graph (the original one, or the pooled result
of earlier steps), parses it into clusters, samples one device per cluster,
lifts the choice to the original nodes through the composed assignment
matrices, and scores it with the latency simulator. Records accumulate in a
buffer of `update_timestep` steps; an update then rebuilds the surrogate
loss -sum_i log_prob_i * gamma^i * reward_i under the current parameters
`k_epochs` times, stepping Adam after each rebuild. Each rebuild runs one
tape and one backward per record and sums the gradients, so an update needs
the memory of one record, whatever the buffer length. The update's tapes
take their large arrays from one `Workspace` that lives for the update:
each record writes into the buffers the record before it used, and a
gradient reuses the buffer of an output its backward has replayed, so the
update maps one record's memory once instead of faulting it back in for
every record. Steps and greedy evaluation never run backward, so their
tapes record nothing and take no workspace: a step keeps only what its
record needs, and its pooled embeddings become the next state's
features. Records share their state's features and normalized adjacency
rather than copying them; the features are read-only. When parsing
collapses the state to a single cluster the state resets to the original
graph, with the accumulated per-node embeddings as its features.

The network computes in `ModelConfig.dtype`: the trainer casts the
features, the parameters and the carried embeddings to it and builds each
level's operator in it, and the tape keeps it from there. The carried
embeddings accumulate in float64, and dropout draws, latencies and rewards
are float64 in either dtype.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autograd import SMALL_ARRAY_BYTES, Adam, SparseMatrix, Tape, Tensor, Workspace
from .encoder import (
    GcnParams,
    encode,
    init_gcn,
    init_projection,
    normalize_adjacency,
)
from .features import FeatureConfig, build_features
from .graph import CompGraph
from .nn import init_mlp, mlp_forward
from .partition import (
    AssignMatrix,
    PooledGraph,
    drop_edges,
    parse_clusters,
    pool,
    pool_features,
    retain_dominant_edges,
    score_edges,
)
from .policy import (
    device_distribution,
    greedy_placement,
    init_placer,
    lift_placement,
    log_prob_of,
    sample_placement,
)
from .simulator import CostModel, MissingCost, reward, simulate


class EmptyBuffer(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Network hyperparameters shared by the encoder, parser, and placer.

    `dtype` is the network's arithmetic: "float32", or "float64", which
    computes what the float64-only versions of this package computed, bit
    for bit."""

    hidden_channel: int = 128
    layer_gnn: int = 2
    layer_trans: int = 2
    layer_parsingnet: int = 2
    dropout_network: float = 0.2
    dropout_parsing: float = 0.0
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("hidden_channel", "layer_gnn", "layer_trans", "layer_parsingnet"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("dropout_network", "dropout_parsing"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Loop hyperparameters. `target_latency` adds an optional convergence
    stop: training ends once the best sampled latency reaches it."""

    max_episodes: int = 100
    update_timestep: int = 20
    k_epochs: int = 4
    gamma: float = 0.99
    learning_rate: float = 1e-4
    seed: int = 0
    use_baseline: bool = False
    target_latency: float | None = None

    def __post_init__(self):
        if self.max_episodes < 1 or self.update_timestep < 1 or self.k_epochs < 1:
            raise ValueError("max_episodes, update_timestep, k_epochs must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.target_latency is not None and not 0 < self.target_latency < math.inf:
            raise ValueError(
                f"target_latency must be positive and finite, got {self.target_latency}"
            )


@dataclass
class StepRecord:
    """One buffered interaction plus the frozen state needed to rebuild its
    log-probability under later parameters."""

    step_index: int
    log_prob: float
    reward: float
    latency: float
    num_clusters: int
    norm: SparseMatrix
    features: np.ndarray
    use_projection: bool
    assign: AssignMatrix
    action: np.ndarray


@dataclass(frozen=True)
class HistoryRow:
    step: int
    episode: int
    latency: float
    reward: float
    num_clusters: int


@dataclass(frozen=True)
class TrainResult:
    best_placement: np.ndarray
    best_latency: float
    history: tuple[HistoryRow, ...]
    episodes: int
    two_cycle_pairs: int


@dataclass(frozen=True)
class _Level:
    """What one coarsening level computes; `collapsed` means one cluster or
    no edges left to parse, so the cascade cannot go on."""

    norm: SparseMatrix
    assign: AssignMatrix
    pooled: PooledGraph
    zp: Tensor
    dist: Tensor
    collapsed: bool


class Trainer:
    """Owns the parameters, optimizer, RNG streams, and the evolving state.

    RNG streams are spawned from the single config seed in a fixed order
    (init, dropout, edge drop, action sampling), so runs with equal seed and
    config replay identically.
    """

    def __init__(
        self,
        graph: CompGraph,
        cm: CostModel,
        cfg: TrainConfig = TrainConfig(),
        model: ModelConfig = ModelConfig(),
        features: FeatureConfig = FeatureConfig(),
    ):
        if graph.num_nodes == 0:
            raise ValueError("cannot train on an empty graph")
        if cm.num_devices < 2:
            raise ValueError("training needs at least 2 devices")
        worst_type = graph.op_range[1]
        if worst_type >= cm.num_op_types:
            raise MissingCost(
                f"cost model covers {cm.num_op_types} op types, "
                f"graph uses type {worst_type}"
            )
        self.graph = graph
        self.cm = cm
        self.cfg = cfg
        self.model = model
        self.dtype = np.dtype(model.dtype)
        self.x0 = build_features(graph, features).astype(self.dtype, copy=False)

        streams = np.random.SeedSequence(cfg.seed).spawn(4)
        self.init_rng, self.dropout_rng, self.parsing_rng, self.action_rng = (
            np.random.default_rng(s) for s in streams
        )

        hidden = model.hidden_channel
        self.projection = init_projection(
            self.init_rng, self.x0.shape[1], hidden, model.layer_trans
        )
        self.gcn: GcnParams = init_gcn(self.init_rng, [hidden] * (model.layer_gnn + 1))
        self.phi = init_mlp(self.init_rng, [hidden] * model.layer_parsingnet + [1])
        self.placer = init_placer(self.init_rng, hidden, hidden, cm.num_devices)
        # drawn in float64, so both dtypes start from the same values
        for p in self.parameters():
            p.data = p.data.astype(self.dtype, copy=False)
            p.grad = np.zeros_like(p.data)
        self.adam = Adam(self.parameters(), lr=cfg.learning_rate)

        # float64 in either dtype: see _reset_to_original
        self.z_acc = np.zeros((graph.num_nodes, hidden))
        self.buffer: list[StepRecord] = []
        self.best_placement: np.ndarray | None = None
        self.best_latency = float("inf")
        self.two_cycle_pairs = 0

        # the original level, built once and shared by every restart
        self.level0 = PooledGraph.of(graph)
        self.identity = AssignMatrix(np.arange(graph.num_nodes), graph.num_nodes)
        self._enter(self.level0, self.x0, True, self.identity)

    @functools.cached_property
    def norm0(self) -> SparseMatrix:
        """The original level's normalized adjacency, built by the first step
        and shared by every reset, its records and every greedy evaluation."""
        return normalize_adjacency(self.level0, self.dtype)

    def parameters(self):
        return [
            *self.projection.parameters(),
            *self.gcn.parameters(),
            *self.phi.parameters(),
            *self.placer.parameters(),
        ]

    def _reset_to_original(self) -> None:
        """Restart from the original graph, carrying accumulated embeddings
        (already at the hidden width, so no input projection).

        The carried matrix is rescaled to unit RMS.  The accumulator sums
        pooled encoder outputs whose scale compounds each time the matrix
        feeds back in as features, and left unchecked that feedback loop
        overflows float64 within a few hundred steps.  A single global
        scalar keeps every relative magnitude intact.  The accumulator is
        float64 whatever the model dtype, so a long run sums without
        float32's rounding or range; the rescaled matrix is cast to the
        model dtype when it is carried.
        """
        carried = self.z_acc.copy()
        rms = float(np.sqrt(np.mean(np.square(carried))))
        if rms > 0.0:
            carried /= rms
        carried = carried.astype(self.dtype, copy=False)
        self._enter(self.level0, carried, False, self.identity)

    def _enter(self, level: PooledGraph, features, projects: bool, composed):
        """Make the given level the state the next step parses. Its features
        are made read-only: records share them instead of copying."""
        features.flags.writeable = False
        self.state_level = level
        self.state_features = features
        self.state_projects = projects
        self.composed = composed

    def _encode(self, tape: Tape, features, projects: bool, norm, rng) -> Tensor:
        """Input projection (original features only), then the GCN; dropout
        masks are drawn from `rng` when one is given."""
        x = Tensor(features)
        h = mlp_forward(tape, x, self.projection) if projects else x
        dropout = self.model.dropout_network
        return encode(tape, h, norm, self.gcn, dropout=dropout, rng=rng)

    def _distribution(self, tape: Tape, z: Tensor, assign) -> tuple[Tensor, Tensor]:
        """Pooled cluster embeddings and their device distribution."""
        zp = pool_features(tape, z, assign)
        return zp, device_distribution(tape, zp, self.placer)

    def _level(
        self, tape: Tape, level: PooledGraph, features, projects: bool, training: bool
    ) -> _Level:
        """Encode one level, parse its scored edges into clusters, pool, and
        give every cluster a device distribution. Training draws dropout
        masks and drops edges; evaluation does neither."""
        norm = self.norm0 if level is self.level0 else normalize_adjacency(level, self.dtype)
        rng = self.dropout_rng if training else None
        z = self._encode(tape, features, projects, norm, rng)
        scores = score_edges(tape, z, level, self.phi)
        if training:
            scores = drop_edges(scores, self.model.dropout_parsing, self.parsing_rng)
        assign = parse_clusters(retain_dominant_edges(scores, level), level)
        pooled = pool(assign, level)
        zp, dist = self._distribution(tape, z, assign)
        collapsed = assign.num_clusters == 1 or pooled.num_edges == 0
        return _Level(norm, assign, pooled, zp, dist, collapsed)

    def step(self) -> StepRecord:
        """One parse/place/simulate interaction; appends to the buffer. The
        log-probability is kept as a float, so the tape records nothing."""
        tape = Tape(record=False)
        state = (self.state_level, self.state_features, self.state_projects)
        level = self._level(tape, *state, training=True)
        action, log_prob = sample_placement(tape, level.dist, self.action_rng)
        composed = self.composed.compose(level.assign)
        placement = lift_placement(action, composed)
        latency = simulate(self.graph, placement, self.cm)

        self.z_acc += level.zp.data[composed.membership]
        self.two_cycle_pairs += level.pooled.two_cycle_pairs()
        if latency < self.best_latency:
            self.best_latency = latency
            self.best_placement = placement.copy()

        record = StepRecord(
            step_index=len(self.buffer) + 1,
            log_prob=float(log_prob.data[0, 0]),
            reward=reward(latency),
            latency=latency,
            num_clusters=level.assign.num_clusters,
            norm=level.norm,
            features=self.state_features,
            use_projection=self.state_projects,
            assign=level.assign,
            action=action,
        )
        self.buffer.append(record)

        if level.collapsed:
            self._reset_to_original()
        else:
            self._enter(level.pooled, level.zp.data, False, composed)
        return record

    def _baseline(self, records: list[StepRecord]) -> float:
        """The mean reward of `records` with `use_baseline`, else 0."""
        if not self.cfg.use_baseline:
            return 0.0
        return sum(r.reward for r in records) / len(records)

    def surrogate_loss(
        self, tape: Tape, records: list[StepRecord], baseline: float | None = None
    ) -> Tensor:
        """-sum_i log_prob_i * gamma^i * (reward_i - baseline), with
        log_probs rebuilt from the frozen per-step states under the current
        parameters. Rewards are constants; the baseline defaults to
        `self._baseline(records)`, and a caller that splits a buffer passes
        the whole buffer's."""
        if baseline is None:
            baseline = self._baseline(records)
        loss: Tensor | None = None
        for rec in records:
            z = self._encode(
                tape, rec.features, rec.use_projection, rec.norm, self.dropout_rng
            )
            _, dist = self._distribution(tape, z, rec.assign)
            lp = log_prob_of(tape, dist, rec.action)
            weight = self.cfg.gamma ** rec.step_index * (rec.reward - baseline)
            term = tape.scale(lp, -weight)
            loss = term if loss is None else tape.add(loss, term)
        assert loss is not None
        return loss

    def update(self) -> None:
        """k_epochs surrogate rebuilds and Adam steps; clears the buffer.

        The loss is a sum over records, so each epoch accumulates its
        gradient one record at a time, each on its own tape: only one
        record's intermediates are alive at once. Records run in buffer
        order, so the dropout stream is drawn as by one tape over all.
        Every tape lends its large arrays from one workspace, reset after
        each record and dropped when the update returns, so the records
        reuse one record's buffers and no array outlives the update."""
        if not self.buffer:
            raise EmptyBuffer("update requires at least one recorded step")
        baseline = self._baseline(self.buffer)
        # an original-level embedding is the largest array; when it is under
        # the size a workspace lends, lending would only add bookkeeping
        widest = self.graph.num_nodes * self.model.hidden_channel * self.dtype.itemsize
        workspace = Workspace() if widest >= SMALL_ARRAY_BYTES else None
        for _ in range(self.cfg.k_epochs):
            self.adam.zero_grad()
            for rec in self.buffer:
                tape = Tape(workspace=workspace)
                tape.backward(self.surrogate_loss(tape, [rec], baseline))
                if workspace is not None:
                    workspace.reset()
            self.adam.step()
        self.buffer.clear()

    def run(self) -> TrainResult:
        """max_episodes episodes of update_timestep steps plus one update."""
        history: list[HistoryRow] = []
        episodes = 0
        for episode in range(1, self.cfg.max_episodes + 1):
            for _ in range(self.cfg.update_timestep):
                rec = self.step()
                history.append(
                    HistoryRow(
                        step=len(history) + 1,
                        episode=episode,
                        latency=rec.latency,
                        reward=rec.reward,
                        num_clusters=rec.num_clusters,
                    )
                )
            self.update()
            episodes = episode
            if (
                self.cfg.target_latency is not None
                and self.best_latency <= self.cfg.target_latency
            ):
                break
        assert self.best_placement is not None
        return TrainResult(
            best_placement=self.best_placement.copy(),
            best_latency=self.best_latency,
            history=tuple(history),
            episodes=episodes,
            two_cycle_pairs=self.two_cycle_pairs,
        )

    def evaluate_greedy(self) -> tuple[np.ndarray, float]:
        """Deterministic cascade: from the original graph, repeatedly parse
        and take the argmax device per cluster, keeping the best simulated
        placement across coarsening levels. Leaves trainer state untouched."""
        graph, features, projects = self.level0, self.x0, True
        composed = self.identity
        best: np.ndarray | None = None
        best_latency = float("inf")
        tape = Tape(record=False)  # no backward, so nothing to keep
        for _ in range(self.graph.num_nodes):
            level = self._level(tape, graph, features, projects, training=False)
            composed = composed.compose(level.assign)
            placement = lift_placement(greedy_placement(level.dist.data), composed)
            latency = simulate(self.graph, placement, self.cm)
            if latency < best_latency:
                best_latency = latency
                best = placement
            if level.collapsed:
                break
            graph, features, projects = level.pooled, level.zp.data, False
        assert best is not None
        return best, best_latency

