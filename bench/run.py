"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run it from the root of a checkout. It writes the run's inputs from the
seed (bench/inputs.py), then runs the timed process (bench/workload.py)
once per input, each fresh, with BLAS pinned to BLAS_THREADS threads,
splitting the seconds between them and waiting for each. A metric is the
mean over the inputs of each input's figure. The traced run (--trace 1)
measures the first input for the whole time.

It prints the environment, the inputs' sizes, the history digests and
every metric named in BENCHMARK.json with its unit and sample count; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones. The exit code is 0
only when every check of every repeat passed.

Files go to .bench_out/ in the checkout: the inputs, the full result
record with every sample, and the traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BLAS_THREADS = 1  # pinned count, at most nproc on any machine
TIME_LIMIT_S = 170  # the whole run, inputs included


def source_digest() -> str:
    """sha256 over every file under src/, so results of two trees compare
    like for like even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="tens of nodes, for the tests")
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "dagplace" / "__init__.py").is_file():
        return fail(f"no dagplace sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}{'-toy' if args.toy else ''}"
    out = ROOT / ".bench_out" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()
    toy = ["--toy"] if args.toy else []
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(out), *toy],
            env=env, stdout=sys.stderr, check=True, timeout=TIME_LIMIT_S,
        )
        inputs = json.loads((out / "inputs.json").read_text())
        # one fresh process per input, as one `dagplace train` per graph;
        # the traced run measures the first input for the whole time
        measured = inputs[:1] if args.trace else inputs
        children = []
        for i in range(len(measured)):
            result_path = out / f"result-{i}-trace{args.trace}.json"
            subprocess.run(
                [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
                 "--input", str(out / f"input-{i}"),
                 "--seconds", str(args.seconds / len(measured)),
                 "--trace", str(args.trace), "--result", str(result_path),
                 "--spans", str(out / "spans.csv"), *toy],
                env=env, stdout=sys.stderr, check=True,
                timeout=TIME_LIMIT_S - (time.monotonic() - started),
            )
            children.append(json.loads(result_path.read_text()))
    except subprocess.CalledProcessError as exc:
        return fail(f"{Path(exc.cmd[1]).name} exited with {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        return fail(f"{Path(exc.cmd[1]).name} did not finish in {TIME_LIMIT_S} s")

    # a run's metric is the mean over its inputs of each input's figure
    values = {
        m["name"]: statistics.fmean(c["metrics"][m["name"]] for c in children)
        for m in wanted if all(m["name"] in c["metrics"] for c in children)
    }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(
            children[0]["environment"], git_sha=git_sha(), src_sha256=source_digest(),
            nproc=os.cpu_count(), blas_threads_pinned=BLAS_THREADS,
        ),
        "inputs": measured,
        "metrics": values,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "problems": sorted({p for c in children for p in c["problems"]}),
        "digests": children[0]["digests"],
        "per_input": children,
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    for i in measured:
        print(
            f"input: {args.workload} seed {i['seed']}: raw {i['raw_nodes']} nodes, "
            f"{i['raw_edges']} edges; co-located {i['colocated_nodes']} nodes, "
            f"{i['colocated_edges']} edges"
        )
    for kind, digest in children[0]["digests"].items():
        if digest:
            print(f"history digest ({kind}): {digest}")
    for m in wanted:
        n = sum(len(c["samples"].get(m["name"], ())) for c in children) or len(children)
        print(f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']:<8} "
              f"({n} sample{'s' if n > 1 else ''})")
    failed, attempted = result["failed"], result["attempted"]
    print(f"{'failed_frac':<36} {failed / attempted:>14.6g} {'ratio':<8} "
          f"({failed} of {attempted} repeats failed a check)")
    for problem in result["problems"]:
        print(f"check failed: {problem}")

    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
