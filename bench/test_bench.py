"""Tests of the benchmark itself, on toy-size inputs (tens of nodes, one
episode, a 10-node search), so all three workloads run in seconds.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def toy_run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digests(lines: list[str]) -> dict[str, str]:
    found = [re.match(r"history digest \((\w+)\): ([0-9a-f]{64})$", ln) for ln in lines]
    return {m.group(1): m.group(2) for m in found if m}


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    # 4 + 22 runs per workload, each about run_seconds plus start-up, fit in 3420 s
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 10) <= 3420
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((ROOT / "bench" / "layer_map.json").read_text())
    groups = list(layer_map["layers"].values()) + [layer_map["trace"]]
    mapped = [name for g in groups for name in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for layer in layer_map["layers"].values():
        for target in layer["should_move"]:
            assert target["end_to_end"] in e2e and target["workload"] in WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_runs_print_every_metric_and_pass_every_check(workload):
    untraced_lines, untraced = toy_run(workload, trace=0)
    traced_lines, traced = toy_run(workload, trace=1)
    for lines, result, metrics in [
        (untraced_lines, untraced, SPEC["end_to_end"]),
        (traced_lines, traced, SPEC["per_layer"]),
    ]:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 2
        assert set(result["metrics"]) == {m["name"] for m in metrics}
        for m in metrics:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            printed = [ln.split() for ln in lines[:-1] if ln.startswith(m["name"] + " ")]
            assert printed and printed[0][2] == m["unit"], m["name"]
        assert any(ln.split()[:3] == ["failed_frac", "0", "ratio"] for ln in lines)
    for m in SPEC["end_to_end"]:
        assert untraced["metrics"][m["name"]]["value"] > 0, m["name"]
    d0, d1 = digests(untraced_lines), digests(traced_lines)
    assert d0["untraced"] == d1["untraced"] == d1["traced"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    def write(seed: int, out: Path) -> None:
        subprocess.run(
            [sys.executable, "bench/inputs.py", "--workload", "search-18",
             "--seed", str(seed), "--out", str(out), "--toy"],
            cwd=ROOT, check=True, capture_output=True, timeout=60,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        )

    write(1, tmp_path / "a")
    write(1, tmp_path / "b")
    write(2, tmp_path / "c")

    def files(d: str) -> list[str]:
        return [p.read_text() for p in sorted((tmp_path / d).glob("input-*/*.json"))]

    a, b, c = files("a"), files("b"), files("c")
    assert len(a) == 4 and a == b and a != c


def test_fails_without_a_printed_result_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search-18", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
