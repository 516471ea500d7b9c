"""Run the benchmark over several seeds and report how steady each metric is.

    python3 bench/spread.py --workload inception-1k --seeds 10 [--first-seed 0]
        [--trace 0] [--seconds S] [--out runs.json] [--against earlier.json]

For each metric it prints the median of the runs, the spread (distance
between the first and third quartile as a share of the median, quartiles
as `statistics.quantiles(values, n=4)` gives them) and the metric's bound
from BENCHMARK.json. A spread under a third of the bound is steady. With
--against it also prints how much worse this set's median is than the
earlier set's, as a share of the earlier median, against the bound.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, before: float, after: float) -> float:
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--out", help="write every run's metrics here (JSON)")
    p.add_argument("--against", help="an earlier --out file to compare medians with")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    values = {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in metrics}
    if args.out:
        record = {"workload": args.workload, "values": values}
        Path(args.out).write_text(json.dumps(record, indent=1))
    earlier = json.loads(Path(args.against).read_text())["values"] if args.against else {}

    last = args.first_seed + len(runs) - 1
    print(f"{args.workload}: {len(runs)} runs, seeds {args.first_seed}..{last}")
    print(f"{'metric':<36}{'median':>14}{'spread':>9}{'bound':>7}  verdict")
    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        s = spread(vals) if med else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if m["name"] in earlier:
                w = worse_by(m, statistics.median(earlier[m["name"]]), med)
                verdict += f"; worse by {w:+.3f} vs earlier: {'ok' if w <= bound else 'REGRESSED'}"
        shown = "" if bound is None else bound
        print(f"{m['name']:<36}{med:>14.6g}{s:>9.3f}{shown:>7}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
