"""Write one run's input files from the workload seed.

    python3 bench/inputs.py --workload inception-1k --seed 0 --out DIR [--toy]

writes, for each of the workload's inputs i, DIR/input-<i>/graph.json and
DIR/input-<i>/cost_model.json with `save_graph` and `save_cost_model`, and
DIR/inputs.json with each input's seed and raw and co-located node and edge
counts. Equal seeds write equal files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dagplace.graph import colocate, save_graph
from dagplace.simulator import save_cost_model
from workloads import WORKLOADS, make_inputs, workload


def write_inputs(name: str, seed: int, toy: bool, out: Path) -> list[dict]:
    wl = workload(name, toy)
    info = []
    for i in range(wl.inputs):
        input_seed = seed * wl.inputs + i
        graph, cm = make_inputs(wl, input_seed, toy)
        d = out / f"input-{i}"
        d.mkdir(parents=True, exist_ok=True)
        save_graph(graph, d / "graph.json")
        save_cost_model(cm, d / "cost_model.json")
        coarse, _ = colocate(graph)
        info.append({
            "seed": input_seed,
            "raw_nodes": graph.num_nodes,
            "raw_edges": graph.num_edges,
            "colocated_nodes": coarse.num_nodes,
            "colocated_edges": coarse.num_edges,
        })
    with open(out / "inputs.json", "w") as fh:
        json.dump(info, fh, indent=1)
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="write a workload's inputs from its seed")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--toy", action="store_true", help="tens of nodes, for the tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    print(json.dumps(write_inputs(args.workload, args.seed, args.toy, Path(args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
