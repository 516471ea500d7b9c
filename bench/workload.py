"""The timed process of one benchmark run: `python3 bench/workload.py ...`.

It receives only one input's generated files and the workload's name, and
trains with the CLI's default seed. As one closed-loop caller, one call at
a time, it repeats this sequence until the measuring time is spent, at
least once:

  set-up   load_graph, load_cost_model, colocate, Trainer(...) (several
           times when each is short)
  train    Trainer.run for the workload's episode count (on fresh copies
           of the set-up Trainer until TRAIN_BUDGET_S is spent)
  eval     Trainer.evaluate_greedy (several calls when each is short)
  search   brute_force_optimal, or the results table's seeded random
           placements scored with simulate on the raw graph
  score    the trained-best and greedy placements lifted to the raw graph
           and simulated there, as results.csv does

Every repeat is checked; a repeat failing any check counts as failed. Each
timed metric is the median of its samples; peak RSS is the process's own.

With --trace 1 untraced and traced repeats of one call per phase
alternate after an untraced warm-up repeat; the traced ones give the
per-layer metrics, and they and the later untraced ones the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import dagplace
from dagplace import graph as dgraph
from dagplace import simulator as dsim
from dagplace import training as dtrain
from tracing import Tracer
from workloads import RANDOM_SEARCH_PLACEMENTS, SEARCH_OPTIMUM, workload

TRAIN_SEED = 0  # the CLI's default --seed; the workload seed only makes the inputs
MAX_CALLS = 500  # per phase and repeat, for calls far shorter than their budget
# per repeat, a phase repeats its call until this much time is spent
SETUP_BUDGET_S = 0.5
TRAIN_BUDGET_S = 2.0
EVAL_BUDGET_S = 0.5
SEARCH_BUDGET_S = 1.0


def history_digest(history) -> str:
    """sha256 of the history rows exactly as history.csv writes them."""
    h = hashlib.sha256()
    for r in history:
        h.update(f"{r.step},{r.episode},{r.latency!r},{r.reward!r},{r.num_clusters}\n".encode())
    return h.hexdigest()


def setup(input_dir: Path, wl):
    """From input paths to a constructed Trainer, as `dagplace train` does."""
    raw = dgraph.load_graph(input_dir / "graph.json")
    cm = dsim.load_cost_model(input_dir / "cost_model.json")
    coarse, membership = dgraph.colocate(raw)
    trainer = dtrain.Trainer(
        coarse, cm, dtrain.TrainConfig(max_episodes=wl.episodes, seed=TRAIN_SEED)
    )
    return raw, cm, coarse, np.asarray(membership, dtype=np.intp), trainer


def valid_placement(p: np.ndarray, n: int, devices: int) -> bool:
    return (
        isinstance(p, np.ndarray)
        and p.shape == (n,)
        and np.issubdtype(p.dtype, np.integer)
        and bool(((p >= 0) & (p < devices)).all())
    )


def repeat(input_dir: Path, wl, once: bool, tracer: Tracer | None = None) -> dict:
    """One pass of the sequence on one input. With `once` every phase makes
    exactly one call, so traced and untraced repeats do the same work."""
    out: dict = {"problems": [], "setup_s": [], "run_s": [], "steps": [], "digests": [],
                 "eval_s": [], "search_per_s": []}
    problems = out["problems"]

    def more(samples: list[float], budget: float) -> bool:
        return not samples or (not once and sum(samples) < budget and len(samples) < MAX_CALLS)

    with tracer.installed() if tracer else contextlib.nullcontext():
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        with span("bench.setup"):
            while more(out["setup_s"], SETUP_BUDGET_S):
                t0 = time.perf_counter()
                raw, cm, coarse, member, trainer = setup(input_dir, wl)
                out["setup_s"].append(time.perf_counter() - t0)
        template = None if once else copy.deepcopy(trainer)
        with span("bench.train"):
            while more(out["run_s"], TRAIN_BUDGET_S):
                trained = trainer if not out["run_s"] else copy.deepcopy(template)
                t0 = time.perf_counter()
                result = trained.run()
                out["run_s"].append(time.perf_counter() - t0)
                out["steps"].append(len(result.history))
                out["digests"].append(history_digest(result.history))
        with span("bench.eval"):
            while more(out["eval_s"], EVAL_BUDGET_S):
                t0 = time.perf_counter()
                greedy, greedy_latency = trained.evaluate_greedy()
                out["eval_s"].append(time.perf_counter() - t0)
        n, d = raw.num_nodes, cm.num_devices
        with span("bench.search"):
            if wl.search == "exhaustive":
                t0 = time.perf_counter()
                found, found_latency = dsim.brute_force_optimal(raw, cm)
                out["search_per_s"].append(d**n / (time.perf_counter() - t0))
                candidates, scores = [found], [found_latency]
            else:
                rng = np.random.default_rng([TRAIN_SEED, 1])
                candidates = list(rng.integers(0, d, size=(RANDOM_SEARCH_PLACEMENTS, n)))
                spent: list[float] = []
                while more(spent, SEARCH_BUDGET_S):
                    t0 = time.perf_counter()
                    scores = [dsim.simulate(raw, p, cm) for p in candidates]
                    spent.append(time.perf_counter() - t0)
                out["search_per_s"] = [len(candidates) / t for t in spent]

    best_raw = result.best_placement[member]
    greedy_raw = greedy[member]
    single = min(dsim.simulate(raw, np.full(n, k, dtype=np.intp), cm) for k in range(d))
    out["placement_ratio"] = dsim.simulate(raw, best_raw, cm) / single
    out["greedy_ratio"] = dsim.simulate(raw, greedy_raw, cm) / single

    if dsim.simulate(coarse, result.best_placement, cm) != result.best_latency:
        problems.append("trained-best placement does not re-simulate to best_latency")
    if dsim.simulate(coarse, greedy, cm) != greedy_latency:
        problems.append("greedy placement does not re-simulate to its latency")
    labelled = [("trained-best", best_raw), ("greedy", greedy_raw)]
    for label, p in labelled + [("search", p) for p in candidates]:
        if not valid_placement(p, n, d):
            problems.append(f"{label} placement is not one valid device per raw node")
    for p, s in zip(candidates, scores):
        if dsim.simulate(raw, p, cm) != s:
            problems.append("a searched placement does not re-simulate to its score")
    if wl.search == "exhaustive" and not math.isclose(
        found_latency, SEARCH_OPTIMUM, rel_tol=1e-12
    ):
        problems.append(f"search returned {found_latency!r}, expected {SEARCH_OPTIMUM}")
    for key in ("placement_ratio", "greedy_ratio"):
        if not (math.isfinite(out[key]) and out[key] > 0):
            problems.append(f"{key} is {out[key]!r}")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


SAMPLES = {
    "setup_s": lambda r: r["setup_s"],
    "train_steps_per_s": lambda r: [n / t for n, t in zip(r["steps"], r["run_s"])],
    "eval_s": lambda r: r["eval_s"],
    "search_placements_per_s": lambda r: r["search_per_s"],
}


def measure(args) -> dict:
    wl = workload(args.workload, args.toy)
    deadline = time.perf_counter() + args.seconds
    tracer = Tracer() if args.trace else None
    reps: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if tracer and len(reps) > len(traced):
            tracer.run_id = len(traced)
            traced.append(repeat(args.input, wl, once=True, tracer=tracer))
        else:
            reps.append(repeat(args.input, wl, once=bool(tracer)))
        durations.append(time.perf_counter() - t0)
        # the traced run's first repeat warms up the process and is left out
        # of the overhead, so it ends with one more untraced repeat
        done = len(traced) >= 1 and len(reps) >= 2 if tracer else True
        if done and time.perf_counter() + statistics.median(durations) > deadline:
            break

    first = reps[0]
    for r in reps + traced:
        if any(d != first["digests"][0] for d in r["digests"]):
            r["problems"].append("history digest differs between runs of one input")
        for key in ("placement_ratio", "greedy_ratio"):
            if r[key] != first[key]:
                r["problems"].append(f"{key} differs between runs of one input")

    everything = reps + traced
    samples = {name: [s for r in reps for s in fn(r)] for name, fn in SAMPLES.items()}
    result = {
        "environment": environment(),
        "attempted": len(everything),
        "failed": sum(1 for r in everything if r["problems"]),
        "problems": sorted({p for r in everything for p in r["problems"]}),
        "digests": {"untraced": first["digests"][0],
                    "traced": traced[0]["digests"][0] if traced else None},
        "samples": samples,
    }
    if tracer:
        per_run = [tracer.layer_metrics(i) for i in range(len(traced))]
        layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        untraced_s = statistics.median(t for r in reps[1:] for t in r["run_s"])
        traced_s = statistics.median(t for r in traced for t in r["run_s"])
        layer["trace.overhead_frac"] = traced_s / untraced_s - 1
        result["metrics"] = layer
        result["traced_repeats"] = len(traced)
        tracer.write_csv(args.spans)
    else:
        result["metrics"] = {name: statistics.median(s) for name, s in samples.items()}
        result["metrics"].update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            placement_ratio=first["placement_ratio"],
            greedy_ratio=first["greedy_ratio"],
        )
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one timed benchmark run")
    p.add_argument("--workload", required=True)
    p.add_argument("--input", required=True, type=Path,
                   help="a directory with graph.json and cost_model.json")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--spans", help="where the traced run writes its spans (CSV)")
    args = p.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(dagplace.__file__).resolve().parent != src / "dagplace":
        print(f"error: imported dagplace from {dagplace.__file__}, not {src}", file=sys.stderr)
        return 2
    result = measure(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
