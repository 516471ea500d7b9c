#!/usr/bin/env python3
"""Wall time of each set-up stage, from a graph file to a constructed Trainer.

For each graph (inception_like and random_dag at 400, 1000, 3000 and 10000
nodes, graph and cost seed 0), each of PROCESSES fresh processes saves the
graph to a JSON file and repeats the set-up of `dagplace train`:
load_graph, colocate, and a Trainer with the CLI defaults on the
co-located graph. Timers wrapped
around the stage functions charge each call its time less the time of the
timed calls inside it, so the stages add up to the set-up:

  load            load_graph less validate: JSON read and the graph's arrays
  validate        validate less topo_sort, on the raw and co-located graphs
  topo_sort       topo_sort, reached through validate
  colocate        colocate less its validate and topo_sort
  ball_sizes      features.ball_sizes, the bit-parallel BFS
  fractal_fit     fractal_dimensions less ball_sizes
  positional      the positional encoding of every node
  other_features  build_features less the three above
  trainer_rest    Trainer.__init__ less build_features: parameter set-up

In each process the first repeat warms up and the later repeats give
per-stage medians; each reported figure is the median of the process
medians. Whole processes on one shared machine can run half again as slow
as others for minutes at a time, so the processes run in rounds over all
graphs rather than one graph after another. Where the library encodes one rank per call
(`positional_encoding`), every call is timed, and the timer's own cost,
under a microsecond a call, is charged to `positional`. BLAS is pinned to
one thread.

The timed library is the `dagplace` on the Python path. With --parent-src,
every round also runs each graph in a process that imports `dagplace`
from that directory instead (another checkout's src/), the two libraries'
processes alternating which goes first, so both records come from the
same stretches of host load; the parent's record goes to --parent-out.
Writes one JSON record per library.

Usage:
    python3 scripts/setup_stages.py [--repeats N] [--toy] [--out PATH]
        [--parent-src DIR] [--parent-out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

SIZES, TOY_SIZES = (400, 1000, 3000, 10000), (30, 60)
GENERATORS = ("inception_like", "random_dag")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 5
STAGES = ("load", "validate", "topo_sort", "colocate", "ball_sizes", "fractal_fit",
          "positional", "other_features", "trainer_rest")


class StageClock:
    """Exclusive time per stage of the wrapped functions."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self._inner: list[float] = []  # time of timed calls inside each open call

    def wrap(self, owner, attr: str, stage: str) -> None:
        fn = getattr(owner, attr)
        inner, self_s, clock = self._inner, self.self_s, time.perf_counter

        def timed(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[stage] += dt - inner.pop()
                if inner:
                    inner[-1] += dt

        setattr(owner, attr, timed)


def measure_one(kind: str, nodes: int, repeats: int) -> dict:
    """Set-up repeats of one graph, in this process."""
    from dagplace import features, fixtures, graph, training

    clock = StageClock()
    clock.wrap(graph, "load_graph", "load")
    clock.wrap(graph, "validate", "validate")
    clock.wrap(graph, "topo_sort", "topo_sort")
    clock.wrap(graph, "colocate", "colocate")
    clock.wrap(features, "ball_sizes", "ball_sizes")
    clock.wrap(features, "fractal_dimensions", "fractal_fit")
    positional = "positional_encodings" if hasattr(features, "positional_encodings") \
        else "positional_encoding"
    clock.wrap(features, positional, "positional")
    clock.wrap(training, "build_features", "other_features")
    clock.wrap(training.Trainer, "__init__", "trainer_rest")

    raw = getattr(fixtures, kind)(nodes, 0)
    cm = fixtures.random_cost_model(raw.num_op_types, 2, 0)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "graph.json")
        graph.save_graph(raw, path)
        for _ in range(repeats + 1):
            clock.self_s.clear()
            t0 = time.perf_counter()
            coarse, _ = graph.colocate(graph.load_graph(path))
            training.Trainer(coarse, cm, training.TrainConfig(seed=0))
            total = time.perf_counter() - t0
            rows.append({"total": total, **{s: clock.self_s[s] for s in STAGES}})
    steady = rows[1:]
    return {
        "raw_nodes": raw.num_nodes,
        "raw_edges": raw.num_edges,
        "nodes": coarse.num_nodes,
        "edges": coarse.num_edges,
        "median_s": {k: statistics.median(r[k] for r in steady) for k in rows[0]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--toy", action="store_true", help="tens of nodes, for a smoke test")
    p.add_argument("--out", default="BENCH_setup.json")
    p.add_argument("--parent-src", help="also time the dagplace package in this directory")
    p.add_argument("--parent-out", default="BENCH_setup_parent.json")
    p.add_argument("--graph", nargs=2, metavar=("KIND", "NODES"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    if args.graph:  # the child process: print one graph's record
        kind, nodes = args.graph
        print(json.dumps(measure_one(kind, int(nodes), args.repeats)))
        return 0

    env = dict(os.environ, **{k: "1" for k in THREADS})
    libraries = {args.out: env}
    if args.parent_src:
        libraries[args.parent_out] = dict(env, PYTHONPATH=os.path.abspath(args.parent_src))
    specs = [(kind, n) for kind in GENERATORS for n in (TOY_SIZES if args.toy else SIZES)]
    runs: dict[str, dict] = {out: defaultdict(list) for out in libraries}
    for round_ in range(PROCESSES):  # rounds over all graphs, so a slow spell hits several
        for i, (kind, nodes) in enumerate(specs):
            cmd = [sys.executable, __file__, "--graph", kind, str(nodes),
                   "--repeats", str(args.repeats)]
            sides = list(libraries.items())
            if (round_ + i) % 2:  # alternate which library goes first
                sides.reverse()
            for out, side_env in sides:
                done = subprocess.run(cmd, env=side_env, check=True, capture_output=True,
                                      text=True)
                runs[out][kind, nodes].append(json.loads(done.stdout))
    for out, by_graph in runs.items():
        print(f"{out}:")
        graphs = {}
        for (kind, nodes), records in by_graph.items():
            per_process = [r.pop("median_s") for r in records]
            m = {k: statistics.median(p[k] for p in per_process) for k in per_process[0]}
            graphs[f"{kind}-{nodes}"] = {**records[0], "median_s": m,
                                         "process_median_s": per_process}
            print(f"  {kind}-{nodes}: {records[0]['nodes']} co-located nodes, set-up "
                  f"{m['total'] * 1e3:.1f} ms: "
                  + ", ".join(f"{s} {m[s] * 1e3:.1f}" for s in STAGES))
        record = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1,
            "repeats": args.repeats,
            "processes": PROCESSES,
            "paired": len(libraries) == 2,
            "toy": args.toy,
            "stages": STAGES,
            "graphs": graphs,
        }
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
