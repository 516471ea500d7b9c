"""Command surface: train a placement policy, evaluate fixed baselines,
report graph statistics, and generate fixture files.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .features import FeatureConfig
from .fixtures import (
    chain_graph,
    diamond_chain_graph,
    inception_like,
    random_cost_model,
    random_dag,
)
from .graph import CompGraph, GraphError, colocate, load_graph, save_graph
from .policy import default_devices, save_placement
from .simulator import (
    BRUTE_FORCE_LIMIT,
    CostModel,
    MissingCost,
    brute_force_optimal,
    load_cost_model,
    save_cost_model,
    simulate,
    simulate_many,
    speedup,
)
from .training import ModelConfig, TrainConfig, Trainer


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for `train`.

    Precedence: built-in defaults, then the JSON config file, then flags.
    Unknown keys in the file are rejected, and a value of the wrong type
    raises TypeError.
    """

    graph: str | None = None
    cost_model: str | None = None
    out: str = "runs/latest"
    colocate: bool = True
    skip_optimal: bool = False
    seed: int = 0
    max_episodes: int = 100
    update_timestep: int = 20
    k_epochs: int = 4
    gamma: float = 0.99
    learning_rate: float = 1e-4
    use_baseline: bool = False
    target_latency: float | None = None
    hidden_channel: int = 128
    layer_gnn: int = 2
    layer_trans: int = 2
    layer_parsingnet: int = 2
    dropout_network: float = 0.2
    dropout_parsing: float = 0.0
    d_pos: int = 16
    pe_base: float = 10000.0

    def __post_init__(self):
        for name, hint in get_type_hints(RunConfig).items():
            allowed = get_args(hint) or (hint,)
            if float in allowed:
                allowed += (int,)  # a hand-written file may say 0 for 0.0
            value = getattr(self, name)
            # bool subclasses int, but a JSON true is not a number
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                expected = hint.__name__ if isinstance(hint, type) else hint
                raise TypeError(f"{name} must be {expected}, got {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = sorted(set(file_values) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values.update(file_values)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ValueError(f"malformed config file {args.config}: {exc}") from exc
    if cfg.graph is None or cfg.cost_model is None:
        raise ValueError("graph and cost_model must be set via flags or config file")
    return cfg


def _load_inputs(graph_path: str, cm_path: str) -> tuple[CompGraph, CostModel]:
    """Load both inputs; reject cost models that cannot rank placements:
    fewer than 2 devices, or a device whose single-device latency is 0."""
    graph = load_graph(graph_path)
    cm = load_cost_model(cm_path)
    if cm.num_devices < 2:
        raise ValueError(f"cost model {cm_path} has fewer than 2 devices")
    devices = np.arange(cm.num_devices)
    single = np.repeat(devices[:, None], graph.num_nodes, axis=1)
    for device, latency in zip(devices, simulate_many(graph, single, cm)):
        if latency <= 0:
            raise ValueError(
                f"device {device}-only latency of {graph_path} under {cm_path} is 0"
            )
    return graph, cm


def _evaluate_baselines(
    graph: CompGraph, cm: CostModel, seed: int, skip_optimal: bool
) -> list[tuple[str, float, np.ndarray]]:
    n = graph.num_nodes
    cpu = np.zeros(n, dtype=np.intp)
    gpu = np.ones(n, dtype=np.intp)
    rng = np.random.default_rng([seed, 1])
    rand = rng.integers(0, cm.num_devices, size=n).astype(np.intp)
    rows = [
        ("cpu-only", simulate(graph, cpu, cm), cpu),
        ("gpu-only", simulate(graph, gpu, cm), gpu),
        ("random", simulate(graph, rand, cm), rand),
    ]
    if not skip_optimal and cm.num_devices**n <= BRUTE_FORCE_LIMIT:
        placement, latency = brute_force_optimal(graph, cm)
        rows.append(("optimal", latency, placement))
    return rows


def _write_results(path: Path, rows: list[tuple[str, float, np.ndarray]]) -> None:
    base = rows[0][1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "latency", "speedup"])
        for name, latency, _ in rows:
            writer.writerow([name, f"{latency:.12g}", f"{speedup(base, latency):.1f}"])


def _print_results(rows: list[tuple[str, float, np.ndarray]]) -> None:
    base = rows[0][1]
    print(f"{'method':<16}{'latency':>14}{'speedup %':>11}")
    for name, latency, _ in rows:
        print(f"{name:<16}{latency:>14.6g}{speedup(base, latency):>11.1f}")


def _write_history(path: Path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "episode", "latency", "reward", "num_clusters"])
        for row in history:
            writer.writerow(
                [row.step, row.episode, repr(row.latency), repr(row.reward), row.num_clusters]
            )


def cmd_train(cfg: RunConfig) -> int:
    raw, cm = _load_inputs(cfg.graph, cfg.cost_model)
    if cfg.colocate:
        trained_graph, membership = colocate(raw)
    else:
        trained_graph, membership = raw, list(range(raw.num_nodes))
    member = np.asarray(membership, dtype=np.intp)

    trainer = Trainer(
        trained_graph,
        cm,
        TrainConfig(
            max_episodes=cfg.max_episodes,
            update_timestep=cfg.update_timestep,
            k_epochs=cfg.k_epochs,
            gamma=cfg.gamma,
            learning_rate=cfg.learning_rate,
            seed=cfg.seed,
            use_baseline=cfg.use_baseline,
            target_latency=cfg.target_latency,
        ),
        ModelConfig(
            hidden_channel=cfg.hidden_channel,
            layer_gnn=cfg.layer_gnn,
            layer_trans=cfg.layer_trans,
            layer_parsingnet=cfg.layer_parsingnet,
            dropout_network=cfg.dropout_network,
            dropout_parsing=cfg.dropout_parsing,
        ),
        FeatureConfig(d_pos=cfg.d_pos, pe_base=cfg.pe_base),
    )
    result = trainer.run()
    greedy_coarse, _ = trainer.evaluate_greedy()

    # placements lifted back to the raw graph; the results table compares
    # everything on the raw graph, the trained one may be coarser
    best_raw = result.best_placement[member]
    greedy_raw = greedy_coarse[member]

    rows = _evaluate_baselines(raw, cm, cfg.seed, cfg.skip_optimal)
    rows.append(("trained-best", simulate(raw, best_raw, cm), best_raw))
    rows.append(("trained-greedy", simulate(raw, greedy_raw, cm), greedy_raw))

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_history(out / "history.csv", result.history)
    _write_results(out / "results.csv", rows)
    winner = min(rows[-2:], key=lambda r: r[1])
    save_placement(winner[2], default_devices(cm.num_devices), out / "best_placement.json")
    with open(out / "config.json", "w") as fh:
        json.dump(asdict(cfg), fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"trained {result.episodes} episodes ({len(result.history)} steps)")
    print(f"best sampled latency on the trained graph: {result.best_latency:.6g}")
    print(f"pooled 2-cycle pairs encountered: {result.two_cycle_pairs}")
    _print_results(rows)
    print(f"artifacts written to {out}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    graph, cm = _load_inputs(args.graph, args.cost_model)
    rows = _evaluate_baselines(graph, cm, args.seed, args.skip_optimal)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_results(out / "baselines.csv", rows)
    _print_results(rows)
    return 0


def cmd_stats(path: str) -> int:
    graph = load_graph(path)
    avg = graph.num_edges / graph.num_nodes if graph.num_nodes else 0.0
    print(f"nodes: {graph.num_nodes}")
    print(f"edges: {graph.num_edges}")
    print(f"avg_degree: {avg:.2f}")
    return 0


def cmd_gen_fixture(args: argparse.Namespace) -> int:
    generators = {
        "chain": chain_graph,
        "diamond-chain": diamond_chain_graph,
        "random-dag": random_dag,
        "inception-like": inception_like,
    }
    graph = generators[args.kind](
        n=args.size, num_op_types=args.num_op_types, seed=args.seed
    )
    cm = random_cost_model(args.num_op_types, args.num_devices, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph_path = out / "graph.json"
    cm_path = out / "cost_model.json"
    save_graph(graph, graph_path)
    save_cost_model(cm, cm_path)
    print(f"wrote {graph_path} ({graph.num_nodes} nodes, {graph.num_edges} edges)")
    print(f"wrote {cm_path} ({cm.num_op_types} op types, {cm.num_devices} devices)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagplace",
        description="Device placement for computation graphs: train a "
        "placement policy against a latency model, or evaluate baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    boolean = argparse.BooleanOptionalAction

    train_p = sub.add_parser("train", help="train a policy and write run artifacts")
    train_p.add_argument("--config", help="JSON config file; flags override it")
    train_p.add_argument("--graph", help="computation graph JSON path")
    train_p.add_argument("--cost-model", help="cost model JSON path")
    train_p.add_argument("--out", help="output directory (default runs/latest)")
    train_p.add_argument("--seed", type=int, help="seed for all run randomness")
    train_p.add_argument("--max-episodes", type=int)
    train_p.add_argument("--update-timestep", type=int, help="steps per update buffer")
    train_p.add_argument("--k-epochs", type=int, help="optimizer passes per buffer")
    train_p.add_argument("--gamma", type=float, help="per-step reward discount")
    train_p.add_argument("--learning-rate", type=float)
    train_p.add_argument("--target-latency", type=float, help="stop once reached")
    train_p.add_argument("--use-baseline", action=boolean, default=None,
                         help="subtract the buffer mean reward in updates")
    train_p.add_argument("--colocate", action=boolean, default=None,
                         help="merge sole-parent/sole-child chains first (default on)")
    train_p.add_argument("--skip-optimal", action=boolean, default=None,
                         help="omit the brute-force row from the results table")
    train_p.add_argument("--hidden-channel", type=int)
    train_p.add_argument("--layer-gnn", type=int)
    train_p.add_argument("--layer-trans", type=int)
    train_p.add_argument("--layer-parsingnet", type=int)
    train_p.add_argument("--dropout-network", type=float)
    train_p.add_argument("--dropout-parsing", type=float)
    train_p.add_argument("--d-pos", type=int, help="positional encoding width")
    train_p.add_argument("--pe-base", type=float, help="positional encoding base")

    base_p = sub.add_parser(
        "baselines", help="evaluate cpu-only, gpu-only, random, and optimal placements"
    )
    base_p.add_argument("--graph", required=True)
    base_p.add_argument("--cost-model", required=True)
    base_p.add_argument("--out", default="runs/baselines")
    base_p.add_argument("--seed", type=int, default=0)
    base_p.add_argument("--skip-optimal", action="store_true")

    stats_p = sub.add_parser(
        "stats", help="print node count, edge count, and average degree"
    )
    stats_p.add_argument("graph", help="computation graph JSON path")

    gen_p = sub.add_parser("gen-fixture", help="write a synthetic graph and cost model")
    gen_p.add_argument(
        "--kind",
        required=True,
        choices=["chain", "diamond-chain", "random-dag", "inception-like"],
    )
    gen_p.add_argument("--size", type=int, default=50)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--num-op-types", type=int, default=8)
    gen_p.add_argument("--num-devices", type=int, default=2)
    gen_p.add_argument("--out", default="fixtures/generated")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(resolve_config(args))
        if args.command == "baselines":
            return cmd_baselines(args)
        if args.command == "stats":
            return cmd_stats(args.graph)
        return cmd_gen_fixture(args)
    except (OSError, GraphError, MissingCost, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
