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
from .policy import save_placement
from .simulator import (
    CostModel,
    MissingCost,
    TooLarge,
    brute_force_optimal,
    eft_placement,
    load_cost_model,
    save_cost_model,
    simulate,
    simulate_many,
    speedup,
)
from .training import ModelConfig, TrainConfig, Trainer


@dataclass(frozen=True)
class RunConfig:
    """The settings of a `train` run that no library config owns."""

    graph: str | None = None
    cost_model: str | None = None
    out: str = "runs/latest"
    colocate: bool = True
    skip_optimal: bool = False


# every `train` setting is a field of one of these; each field is a config
# file key and a flag
TRAIN_CONFIGS = (RunConfig, TrainConfig, ModelConfig, FeatureConfig)

TRAIN_HELP = {
    "graph": "computation graph JSON path",
    "cost_model": "cost model JSON path",
    "out": "output directory (default runs/latest)",
    "colocate": "merge sole-parent/sole-child chains first (default on)",
    "skip_optimal": "omit the brute-force row from the results table",
    "update_timestep": "steps per update buffer",
    "k_epochs": "optimizer passes per buffer",
    "gamma": "per-step reward discount",
    "seed": "seed for all run randomness",
    "use_baseline": "subtract the buffer mean reward in updates",
    "target_latency": "stop once reached",
    "dtype": "network arithmetic, float32 (default) or float64",
    "d_pos": "positional encoding width",
    "pe_base": "positional encoding base",
}


def _check_types(cls: type, values: dict) -> None:
    """Raise TypeError for the first value that does not fit the hint of
    its field in `cls`; keys that are not fields of `cls` are ignored."""
    for name, hint in get_type_hints(cls).items():
        if name not in values:
            continue
        allowed = get_args(hint) or (hint,)
        if float in allowed:
            allowed += (int,)  # a hand-written file may say 0 for 0.0
        value = values[name]
        # bool subclasses int, but a JSON true is not a number
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            expected = hint.__name__ if isinstance(hint, type) else hint
            raise TypeError(f"{name} must be {expected}, got {value!r}")


def resolve_config(
    args: argparse.Namespace,
) -> tuple[RunConfig, TrainConfig, ModelConfig, FeatureConfig]:
    """Merge built-in defaults, then the JSON config file, then flags, into
    one config per class of TRAIN_CONFIGS. Unknown keys in the file and
    values of the wrong type are rejected."""
    known = [f.name for cls in TRAIN_CONFIGS for f in fields(cls)]
    values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_values) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values.update(file_values)
    for name in known:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    try:
        for cls in TRAIN_CONFIGS:
            _check_types(cls, values)
    except TypeError as exc:
        raise ValueError(f"malformed config file {args.config}: {exc}") from exc
    run, train, model, features = (
        cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})
        for cls in TRAIN_CONFIGS
    )
    if run.graph is None or run.cost_model is None:
        raise ValueError("graph and cost_model must be set via flags or config file")
    return run, train, model, features


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
    eft, eft_latency = eft_placement(graph, cm)
    rows = [
        ("cpu-only", simulate(graph, cpu, cm), cpu),
        ("gpu-only", simulate(graph, gpu, cm), gpu),
        ("random", simulate(graph, rand, cm), rand),
        ("eft", eft_latency, eft),
    ]
    if not skip_optimal:
        try:
            placement, latency = brute_force_optimal(graph, cm)
        except TooLarge:  # past the search's guard: no optimal row
            return rows
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


def cmd_train(
    run: RunConfig, train: TrainConfig, model: ModelConfig, features: FeatureConfig
) -> int:
    raw, cm = _load_inputs(run.graph, run.cost_model)
    if run.colocate:
        trained_graph, membership = colocate(raw)
    else:
        trained_graph, membership = raw, list(range(raw.num_nodes))
    member = np.asarray(membership, dtype=np.intp)

    trainer = Trainer(trained_graph, cm, train, model, features)
    result = trainer.run()
    greedy_coarse, _ = trainer.evaluate_greedy()

    # placements lifted back to the raw graph; the results table compares
    # everything on the raw graph, the trained one may be coarser
    best_raw = result.best_placement[member]
    greedy_raw = greedy_coarse[member]

    rows = _evaluate_baselines(raw, cm, train.seed, run.skip_optimal)
    rows.append(("trained-best", simulate(raw, best_raw, cm), best_raw))
    rows.append(("trained-greedy", simulate(raw, greedy_raw, cm), greedy_raw))

    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_history(out / "history.csv", result.history)
    _write_results(out / "results.csv", rows)
    winner = min(rows[-2:], key=lambda r: r[1])
    save_placement(winner[2], cm.num_devices, out / "best_placement.json")
    merged = {**asdict(run), **asdict(train), **asdict(model), **asdict(features)}
    with open(out / "config.json", "w") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
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

    train_p = sub.add_parser("train", help="train a policy and write run artifacts")
    train_p.add_argument("--config", help="JSON config file; flags override it")
    for cls in TRAIN_CONFIGS:
        for name, hint in get_type_hints(cls).items():
            if hint is bool:
                kind = {"action": argparse.BooleanOptionalAction}
            else:  # the non-None member of `int`, `float | None`, ...
                (value_type,) = [t for t in get_args(hint) or (hint,) if t is not type(None)]
                kind = {"type": value_type}
            train_p.add_argument(
                "--" + name.replace("_", "-"), help=TRAIN_HELP.get(name), **kind
            )

    base_p = sub.add_parser(
        "baselines", help="evaluate cpu-only, gpu-only, random, eft and optimal placements"
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
            return cmd_train(*resolve_config(args))
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
