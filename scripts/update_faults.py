#!/usr/bin/env python3
"""Wall time and minor page faults of training steps and policy updates.

For each graph, a fresh process builds the co-located graph and a Trainer
with the CLI defaults, then runs whole episodes (update_timestep steps,
then one update). Per episode it records the wall time and the minor
page faults (`resource.getrusage(RUSAGE_SELF).ru_minflt`) of the steps and
of the update. The first episode warms the process up; the summary is the
median over the later, steady-state episodes. BLAS is pinned to one
thread. Writes one JSON record.

Usage:
    python3 scripts/update_faults.py [--episodes N] [--toy] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

GRAPHS = {  # name -> (generator, nodes, toy nodes); graph and cost seed 0
    "random-dag-2k": ("random_dag", 2000, 60),
    "inception-1k": ("inception_like", 1000, 40),
}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure_one(name: str, episodes: int, toy: bool) -> dict:
    """Episodes of one fresh Trainer on one graph, in this process."""
    from dagplace import fixtures
    from dagplace.graph import colocate
    from dagplace.training import Trainer, TrainConfig

    kind, nodes, toy_nodes = GRAPHS[name]
    raw = getattr(fixtures, kind)(toy_nodes if toy else nodes, 0)
    graph, _ = colocate(raw)
    trainer = Trainer(graph, fixtures.random_cost_model(8, 2, 0), TrainConfig(seed=0))
    rows = []
    for _ in range(episodes):
        f0, t0 = minflt(), time.perf_counter()
        for _ in range(trainer.cfg.update_timestep):
            trainer.step()
        f1, t1 = minflt(), time.perf_counter()
        trainer.update()
        f2, t2 = minflt(), time.perf_counter()
        rows.append({"steps_s": t1 - t0, "steps_minflt": f1 - f0,
                     "update_s": t2 - t1, "update_minflt": f2 - f1})
    steady = rows[1:] or rows
    return {
        "raw_nodes": raw.num_nodes,
        "nodes": graph.num_nodes,
        "episodes": rows,
        "steady_median": {k: statistics.median(r[k] for r in steady) for k in rows[0]},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--episodes", type=int, default=6)
    p.add_argument("--toy", action="store_true", help="tens of nodes, for a smoke test")
    p.add_argument("--out", default="BENCH_update_faults.json")
    p.add_argument("--graph", choices=sorted(GRAPHS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.episodes < 1:
        p.error("--episodes must be >= 1")
    if args.graph:  # the child process: print one graph's record
        print(json.dumps(measure_one(args.graph, args.episodes, args.toy)))
        return 0

    env = dict(os.environ, **{k: "1" for k in THREADS})
    graphs = {}
    for name in GRAPHS:
        cmd = [sys.executable, __file__, "--graph", name, "--episodes", str(args.episodes)]
        out = subprocess.run(cmd + ["--toy"] * args.toy, env=env, check=True,
                             capture_output=True, text=True)
        graphs[name] = json.loads(out.stdout)
        m = graphs[name]["steady_median"]
        print(f"{name}: {graphs[name]['nodes']} nodes, steps {m['steps_s']:.3f} s "
              f"{m['steps_minflt']:.0f} faults, update {m['update_s']:.3f} s "
              f"{m['update_minflt']:.0f} faults, peak RSS {graphs[name]['peak_rss_mb']:.1f} MB")
    record = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
        "episodes": args.episodes,
        "toy": args.toy,
        "graphs": graphs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
