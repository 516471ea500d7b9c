#!/usr/bin/env python3
"""Train a placement policy on the bundled split-favoring fixture.

The fixture is a 10-node graph whose optimal placement splits two parallel
arms across the two devices, so neither single-device baseline can match
it.  The script writes the fixture, trains with a configuration known to
find the split quickly, and prints the final comparison table.

Usage:
    python3 scripts/run_end_to_end.py [--out DIR] [--seed N] [--episodes N]
                                      [--dtype float32|float64]
"""

import argparse
import sys
from pathlib import Path

from dagplace.cli import main as dagplace
from dagplace.fixtures import split_fixture
from dagplace.graph import save_graph
from dagplace.simulator import save_cost_model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/end_to_end")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=40)
    parser.add_argument("--dtype", default="float32", help="network arithmetic")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    graph, cost_model = split_fixture()
    save_graph(graph, out / "graph.json")
    save_cost_model(cost_model, out / "cost_model.json")

    # Co-location would fuse each arm of this fixture into one node and
    # change its cost structure, so train on the raw graph.  Stop early
    # once the best sampled latency is within 10 percent of the known
    # 5.1 optimum.
    return dagplace([
        "train",
        "--graph", str(out / "graph.json"),
        "--cost-model", str(out / "cost_model.json"),
        "--out", str(out),
        "--seed", str(args.seed),
        "--max-episodes", str(args.episodes),
        "--update-timestep", "10",
        "--k-epochs", "2",
        "--learning-rate", "0.01",
        "--use-baseline",
        "--no-colocate",
        "--hidden-channel", "16",
        "--dropout-parsing", "0.2",
        "--dropout-network", "0",
        "--target-latency", "5.61",
        "--dtype", args.dtype,
    ])


if __name__ == "__main__":
    sys.exit(main())
