#!/usr/bin/env python3
"""Wall time and traced peak memory of a `brute_force_optimal` call.

For each graph (the benchmark's search-18 graph at seeds 0 and 1,
chain_graph(22), inception_like(20) and random_dag(20), the last three
with graph seed 0 and a 2-device `random_cost_model` of seed 0, and
random_dag(20) and inception_like(20) under equal compute costs and free
transfers, where every placement ties and no bound prunes: the first has
five weakly connected components, the second one), each of PROCESSES
fresh processes builds the graph and its cost model, runs one warm-up
search (which also builds what the graph caches for the search), times
SEARCHES more and keeps their median, then runs one under tracemalloc for
its peak traced bytes (numpy's arrays included). Each reported figure is
the median of the process figures, so one slow process moves it less than
one slow search would. Whole processes on one shared machine can run half again
as slow as others for minutes at a time, so the processes run in rounds
over all graphs rather than one graph after another. BLAS is pinned to
one thread.

Each graph's record also gives its node count, the sizes of its weakly
connected components, largest first (the search covers the sum of
2**size over them), the number of placements of the whole graph, the
optimum's latency and placement, and placements/s (that number over the
median time). The search imports `dagplace` from the Python path. With
--parent-src, every round also runs each graph in a process that imports
`dagplace` from that directory instead (another checkout's src/), the two
libraries' processes alternating which goes first, and the parent's
record goes to --parent-out; the script exits 1 if the two libraries find
different optima. Writes one JSON record per library.

Usage:
    python3 scripts/search_rates.py [--toy] [--out PATH]
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
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

# name -> (generator, nodes, seed); "search" is bench/workloads.search_graph
GRAPHS = {
    "search-18-seed0": ("search", 0, 0),
    "search-18-seed1": ("search", 0, 1),
    "chain_graph-22": ("chain_graph", 22, 0),
    "inception_like-20": ("inception_like", 20, 0),
    "random_dag-20": ("random_dag", 20, 0),
    "ties-random_dag-20": ("ties-random_dag", 20, 0),
    "ties-inception_like-20": ("ties-inception_like", 20, 0),
}
TOY_GRAPHS = {  # under 2**12 placements each
    "search-10-seed0": ("search", 0, 0),
    "chain_graph-10": ("chain_graph", 10, 0),
    "inception_like-8": ("inception_like", 8, 0),
    "random_dag-10": ("random_dag", 10, 0),
    "ties-random_dag-10": ("ties-random_dag", 10, 0),
    "ties-inception_like-8": ("ties-inception_like", 8, 0),
}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 5
SEARCHES = 5  # timed per process, after one warm-up search


def build(kind: str, nodes: int, seed: int, toy: bool):
    """The graph and cost model of one record."""
    from dagplace import fixtures
    from dagplace.simulator import CostModel

    if kind.startswith("ties-"):  # every placement ties: nothing prunes
        g = getattr(fixtures, kind.removeprefix("ties-"))(nodes, seed=seed)
        return g, CostModel(np.ones((g.num_op_types, 2)), np.zeros((2, 2)))
    if kind == "search":  # the search-18 workload's input (10 nodes at toy size)
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
        from workloads import search_graph

        return search_graph(seed, toy)
    g = getattr(fixtures, kind)(nodes, seed=seed)
    return g, fixtures.random_cost_model(g.num_op_types, 2, seed)


def measure_one(kind: str, nodes: int, seed: int, toy: bool) -> dict:
    """A warm-up search, SEARCHES timed ones and a traced one on one graph,
    in this process."""
    from dagplace.graph import components
    from dagplace.simulator import brute_force_optimal

    g, cm = build(kind, nodes, seed, toy)
    edges = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    ids, count = components(g.num_nodes, edges[:, 0], edges[:, 1])
    brute_force_optimal(g, cm)  # warm-up
    seconds = []
    for _ in range(SEARCHES):
        t0 = time.perf_counter()
        placement, latency = brute_force_optimal(g, cm)
        seconds.append(time.perf_counter() - t0)
    tracemalloc.start()
    brute_force_optimal(g, cm)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": g.num_nodes,
        "components": sorted(np.bincount(ids, minlength=count).tolist(), reverse=True),
        "placements": cm.num_devices**g.num_nodes,
        "latency": latency,
        "placement": placement.tolist(),
        "seconds": statistics.median(seconds),
        "peak_bytes": peak,
    }


def summarize(runs: dict[str, list[dict]]) -> dict:
    """One library's record per graph from its process records."""
    graphs = {}
    for name, records in runs.items():
        seconds = [r["seconds"] for r in records]
        peaks = [r["peak_bytes"] for r in records]
        r = records[0]
        if any((s["latency"], s["placement"]) != (r["latency"], r["placement"]) for s in records):
            raise SystemExit(f"{name}: processes found different optima")
        median = statistics.median(seconds)
        graphs[name] = {
            "nodes": r["nodes"], "components": r["components"],
            "placements": r["placements"],
            "latency": r["latency"], "placement": r["placement"],
            "seconds": median,
            "placements_per_s": r["placements"] / median,
            "peak_bytes": statistics.median(peaks),
            "process_seconds": seconds,
        }
    return graphs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--toy", action="store_true", help="small searches, for a smoke test")
    p.add_argument("--out", default="BENCH_search.json")
    p.add_argument("--parent-src", help="also time the dagplace package in this directory")
    p.add_argument("--parent-out", default="BENCH_search_parent.json")
    p.add_argument("--graph", nargs=3, metavar=("KIND", "NODES", "SEED"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.graph:  # the child process: print one graph's record
        kind, nodes, seed = args.graph
        print(json.dumps(measure_one(kind, int(nodes), int(seed), args.toy)))
        return 0

    env = dict(os.environ, **{k: "1" for k in THREADS})
    libraries = {args.out: env}
    if args.parent_src:
        libraries[args.parent_out] = dict(env, PYTHONPATH=os.path.abspath(args.parent_src))
    specs = TOY_GRAPHS if args.toy else GRAPHS
    runs: dict[str, dict[str, list[dict]]] = {out: defaultdict(list) for out in libraries}
    for round_ in range(PROCESSES):  # rounds over all graphs
        for i, (name, (kind, nodes, seed)) in enumerate(specs.items()):
            cmd = [sys.executable, __file__, "--graph", kind, str(nodes), str(seed)]
            cmd += ["--toy"] if args.toy else []
            sides = list(libraries.items())
            if (round_ + i) % 2:  # alternate which library goes first
                sides.reverse()
            for out, side_env in sides:
                done = subprocess.run(cmd, env=side_env, check=True, capture_output=True,
                                      text=True)
                runs[out][name].append(json.loads(done.stdout))
    records = {out: summarize(by_graph) for out, by_graph in runs.items()}
    for out, graphs in records.items():
        print(f"{out}:")
        for name, g in graphs.items():
            print(f"  {name}: {g['nodes']} nodes, {g['placements']} placements: "
                  f"{g['seconds'] * 1e3:.2f} ms ({g['placements_per_s']:.3g}/s), "
                  f"peak {g['peak_bytes'] / 2**20:.2f} MiB, latency {g['latency']}")
        record = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": 1,
            "processes": PROCESSES,
            "searches": SEARCHES,
            "paired": len(libraries) == 2,
            "toy": args.toy,
            "graphs": graphs,
        }
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    optima = [{name: (g["latency"], g["placement"]) for name, g in graphs.items()}
              for graphs in records.values()]
    if optima[1:] and optima[0] != optima[1]:
        differ = [name for name in optima[0] if optima[0][name] != optima[1][name]]
        print(f"the two libraries find different optima on {', '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
