"""Workload definitions: how each workload's inputs are made from its seed,
and how much training and search one repeat of it runs.

A run measures several inputs (`Workload.inputs`) so that one unusual
graph moves a run's figures less: graphs from different seeds differ in
component structure and in how the coarsening cascade unfolds, which
changes set-up, evaluation, memory and placement quality from graph to
graph.

Every workload drives the same path as `dagplace train` with the CLI
defaults (co-location on, hidden_channel 128, update_timestep 20, k_epochs
4, learning rate 1e-4): set-up, `Trainer.run`, `Trainer.evaluate_greedy`,
the raw-graph scoring of the results table, and a placement search.

- inception-1k: one long connected component of about 1000 nodes, the
  size of the paper's reference graphs. The fractal-dimension BFS dominates
  set-up, and the coarsening cascade collapses within a few steps, so
  training time is mostly the surrogate rebuilds and backward passes.
- random-dag-2k: many small components, so the cascade stalls at a few
  hundred clusters and every step and rebuild runs dense matrices of
  hundreds to ~1.8k rows; peak memory grows quadratically here.
- search-18: two fixtures with hand-derived optima as disjoint components
  of one 18-node graph. `dagplace train` and `dagplace baselines` run the
  exhaustive search on every graph of up to 24 nodes, so almost all of the
  time is in the simulator; training there is the small-graph end, where
  per-call overhead dominates.

The toy variants (tens of nodes, one episode, a 10-node search) exist for
the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dagplace import fixtures
from dagplace.graph import CompGraph, OpNode, make_graph
from dagplace.simulator import CostModel

SEARCH_OPTIMUM = 5.1  # of split_fixture, and of the combined search graph


@dataclass(frozen=True)
class Workload:
    name: str
    episodes: int  # Trainer.run episodes per repeat
    search: str  # "exhaustive" (brute_force_optimal) or "random" (scoring)
    nodes: int  # requested graph size; 0 for the fixed search graph
    inputs: int  # inputs per run, made from seed * inputs + 0, 1, ...


WORKLOADS = {
    "inception-1k": Workload("inception-1k", episodes=3, search="random", nodes=1000, inputs=6),
    "random-dag-2k": Workload("random-dag-2k", episodes=1, search="random", nodes=2000, inputs=3),
    "search-18": Workload("search-18", episodes=3, search="exhaustive", nodes=0, inputs=2),
}

TOY = {
    "inception-1k": Workload("inception-1k", episodes=1, search="random", nodes=40, inputs=2),
    "random-dag-2k": Workload("random-dag-2k", episodes=1, search="random", nodes=60, inputs=2),
    "search-18": Workload("search-18", episodes=1, search="exhaustive", nodes=0, inputs=2),
}

# placements per timed batch of the "random" search: the results table's
# seeded random placement, drawn several times
RANDOM_SEARCH_PLACEMENTS = 8


def workload(name: str, toy: bool) -> Workload:
    return (TOY if toy else WORKLOADS)[name]


def make_inputs(wl: Workload, seed: int, toy: bool) -> tuple[CompGraph, CostModel]:
    """One graph and cost model; equal seeds give equal inputs. A run with
    --seed s uses seeds s * wl.inputs + i for i < wl.inputs."""
    if wl.name == "inception-1k":
        return fixtures.inception_like(wl.nodes, seed), fixtures.random_cost_model(8, 2, seed)
    if wl.name == "random-dag-2k":
        return fixtures.random_dag(wl.nodes, seed), fixtures.random_cost_model(8, 2, seed)
    return search_graph(seed, toy)


def search_graph(seed: int, toy: bool) -> tuple[CompGraph, CostModel]:
    """split_fixture (optimum 5.1) and, unless toy, hand_solved_fixture
    (optimum 2.9) as disjoint components, node ids permuted by the seed.

    The hand-solved fixture's op types are offset by 3 so both cost tables
    fit one model. The split arms get shape (2,) so that one transfer rate
    of 0.05 reproduces the split fixture's 0.1 arm-to-sink transfer; the
    source-to-arm transfer drops to 0.05, which still leaves 5.1 as the
    optimum (one 0.1 crossing is unavoidable, two crossings cost 5.15).
    The combined optimum is the larger component optimum, 5.1.
    """
    split, split_cm = fixtures.split_fixture()
    parts = [
        [(v.id, v.op_type, (2,) if 1 <= v.id <= 8 else v.output_shape) for v in split.nodes]
    ]
    edges = [list(split.edges)]
    compute = [split_cm.compute]
    if not toy:
        hand, hand_cm, _, _ = fixtures.hand_solved_fixture()
        base = split.num_nodes
        parts.append([(base + v.id, v.op_type + 3, v.output_shape) for v in hand.nodes])
        edges.append([(base + u, base + v) for u, v in hand.edges])
        compute.append(hand_cm.compute)
    nodes = [n for part in parts for n in part]
    perm = np.random.default_rng(seed).permutation(len(nodes))
    graph = make_graph(
        sorted((OpNode(int(perm[v]), t, tuple(s)) for v, t, s in nodes), key=lambda n: n.id),
        sorted((int(perm[u]), int(perm[v])) for part in edges for u, v in part),
        num_op_types=3 * len(compute),
    )
    cm = CostModel(np.vstack(compute), [[0.0, 0.05], [0.05, 0.0]])
    return graph, cm
