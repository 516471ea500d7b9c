#!/usr/bin/env python3
"""Wall time of one `simulate` call and one `simulate_many` batch on raw
and co-located graphs.

For each graph (inception_like and random_dag at 400, 1000, 3000 and 10000
nodes, graph and cost seed 0, raw and co-located), each of PROCESSES fresh
processes builds the graph and a 2-device `random_cost_model`, times the
first `simulate` call (which also builds what the graph caches for the
simulator beyond what validation builds), then scores 8 seeded random
placements in batches until --seconds is spent, then scores one seeded batch of 64
placements with `simulate_many` until --seconds is spent again. A process's
per-call time is its median batch time over 8, and its batch time the
median `simulate_many` call; each reported figure is the median of the
process figures. Whole processes on one shared machine can run half again
as slow as others for minutes at a time, so the processes run in rounds
over all graphs rather than one graph after another. BLAS is pinned to one
thread.

Each graph's record also gives its node, edge and level counts (a level is
the longest path from a source, in edges) and the sweep `simulate` took:
"level" or "scalar" ("scalar" for a library that has only that one).
The timed library is the `dagplace` on the Python path. With --parent-src,
every round also runs each graph in a process that imports `dagplace` from
that directory instead (another checkout's src/), the two libraries'
processes alternating which goes first, so both records come from the same
stretches of host load; the parent's record goes to --parent-out. Writes
one JSON record per library. Every placement either kernel scored is
scored by the other too; the script exits 1, naming the graphs, if any
latency differs between them.

Usage:
    python3 scripts/simulate_rates.py [--seconds S] [--toy] [--out PATH]
        [--parent-src DIR] [--parent-out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SIZES, TOY_SIZES = (400, 1000, 3000, 10000), (30, 60)
GENERATORS = ("inception_like", "random_dag")
FORMS = ("raw", "colocated")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 5
PLACEMENTS = 8
BATCH = 64
SWEEPS = {"_level_sweep": "level", "_scalar_sweep": "scalar"}


def level_count(graph) -> int:
    """Levels of the graph, from its own pass over the edge pairs (which
    every library version has) in a topological order."""
    n = graph.num_nodes
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg, depth = [0] * n, [0] * n
    for u, v in graph.edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if not indeg[v]]
    for u in ready:  # grows as nodes become ready
        for v in succ[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return max(depth, default=-1) + 1


def measure_one(kind: str, nodes: int, form: str, seconds: float) -> dict:
    """Time `simulate` on one graph, in this process."""
    from dagplace import fixtures, graph, simulator

    taken: Counter = Counter()
    for name, label in SWEEPS.items():
        if hasattr(simulator, name):
            kernel = getattr(simulator, name)
            setattr(simulator, name,
                    lambda *a, _k=kernel, _l=label: taken.update([_l]) or _k(*a))

    g = getattr(fixtures, kind)(nodes, 0)
    if form == "colocated":
        g, _ = graph.colocate(g)
    cm = fixtures.random_cost_model(g.num_op_types, 2, 0)
    rng = np.random.default_rng(0)
    placements = list(rng.integers(0, 2, size=(PLACEMENTS, g.num_nodes)))
    batch = rng.integers(0, 2, size=(BATCH, g.num_nodes))
    simulate, simulate_many = simulator.simulate, simulator.simulate_many
    t0 = time.perf_counter()
    simulate(g, placements[0], cm)
    first = time.perf_counter() - t0
    batches = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for p in placements:
            simulate(g, p, cm)
        batches.append(time.perf_counter() - t0)
    many = []
    deadline = time.perf_counter() + seconds
    while not many or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        simulate_many(g, batch, cm)
        many.append(time.perf_counter() - t0)
    scored = np.concatenate([placements, batch])
    agree = simulate_many(g, scored, cm).tolist() == [simulate(g, p, cm) for p in scored]
    return {
        "nodes": g.num_nodes,
        "edges": g.num_edges,
        "levels": level_count(g),
        "sweep": "scalar" if not taken else "+".join(sorted(taken)),
        "first_call_us": first * 1e6,
        "per_call_us": statistics.median(batches) / PLACEMENTS * 1e6,
        "batch_us": statistics.median(many) * 1e6,
        "kernels_agree": agree,
    }


def summarize(runs: dict[tuple[str, int, str], list[dict]]) -> tuple[dict, list[str]]:
    """One library's record per graph from its process records, and the
    graphs where its two kernels disagreed."""
    graphs, disagree = {}, []
    for (kind, nodes, form), records in runs.items():
        name = f"{kind}-{nodes}-{form}"
        per_call = [r["per_call_us"] for r in records]
        first = [r["first_call_us"] for r in records]
        batch = [r["batch_us"] for r in records]
        r = records[0]
        graphs[name] = {
            "nodes": r["nodes"], "edges": r["edges"], "levels": r["levels"],
            "sweep": r["sweep"],
            "per_call_us": statistics.median(per_call),
            "first_call_us": statistics.median(first),
            "batch_us": statistics.median(batch),
            "process_per_call_us": per_call,
            "process_first_call_us": first,
        }
        if not all(r["kernels_agree"] for r in records):
            disagree.append(name)
    return graphs, disagree


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=0.5, help="timing per process and graph")
    p.add_argument("--toy", action="store_true", help="tens of nodes, for a smoke test")
    p.add_argument("--out", default="BENCH_simulate.json")
    p.add_argument("--parent-src", help="also time the dagplace package in this directory")
    p.add_argument("--parent-out", default="BENCH_simulate_parent.json")
    p.add_argument("--graph", nargs=3, metavar=("KIND", "NODES", "FORM"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.graph:  # the child process: print one graph's record
        kind, nodes, form = args.graph
        print(json.dumps(measure_one(kind, int(nodes), form, args.seconds)))
        return 0

    env = dict(os.environ, **{k: "1" for k in THREADS})
    libraries = {args.out: env}
    if args.parent_src:
        libraries[args.parent_out] = dict(env, PYTHONPATH=os.path.abspath(args.parent_src))
    specs = [(kind, n, form) for kind in GENERATORS
             for n in (TOY_SIZES if args.toy else SIZES) for form in FORMS]
    runs: dict[str, dict] = {out: defaultdict(list) for out in libraries}
    for round_ in range(PROCESSES):  # rounds over all graphs, so a slow spell hits several
        for i, (kind, nodes, form) in enumerate(specs):
            cmd = [sys.executable, __file__, "--graph", kind, str(nodes), form,
                   "--seconds", str(args.seconds)]
            sides = list(libraries.items())
            if (round_ + i) % 2:  # alternate which library goes first
                sides.reverse()
            for out, side_env in sides:
                done = subprocess.run(cmd, env=side_env, check=True, capture_output=True,
                                      text=True)
                runs[out][kind, nodes, form].append(json.loads(done.stdout))
    failed = False
    for out, by_graph in runs.items():
        graphs, disagree = summarize(by_graph)
        print(f"{out}:")
        for name, g in graphs.items():
            print(f"  {name}: {g['nodes']} nodes, {g['edges']} edges, "
                  f"{g['levels']} levels, {g['sweep']} sweep: "
                  f"{g['per_call_us']:.0f} us a call, first "
                  f"{g['first_call_us']:.0f} us, {BATCH} placements "
                  f"{g['batch_us']:.0f} us")
        record = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1,
            "processes": PROCESSES,
            "paired": len(libraries) == 2,
            "placements": PLACEMENTS,
            "batch": BATCH,
            "seconds": args.seconds,
            "toy": args.toy,
            "graphs": graphs,
        }
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        if disagree:
            print(f"{out}: simulate and simulate_many differ on {', '.join(disagree)}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
