import contextlib
import csv
import io
import json
import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagplace.cli import RunConfig, build_parser, main, resolve_config
from dagplace.features import FeatureConfig
from dagplace.fixtures import (
    dominant_device_fixture,
    random_cost_model,
    random_dag,
    split_fixture,
)
from dagplace.graph import load_graph, save_graph
from dagplace.simulator import load_cost_model, save_cost_model, simulate, speedup
from dagplace.training import ModelConfig, TrainConfig


@pytest.fixture
def split_files(tmp_path):
    g, cm = split_fixture()
    gp, cp = tmp_path / "graph.json", tmp_path / "cm.json"
    save_graph(g, gp)
    save_cost_model(cm, cp)
    return str(gp), str(cp)


@pytest.fixture
def dominant_files(tmp_path):
    g, cm = dominant_device_fixture()
    gp, cp = tmp_path / "graph.json", tmp_path / "cm.json"
    save_graph(g, gp)
    save_cost_model(cm, cp)
    return str(gp), str(cp)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


TRAIN_FLAGS = [
    "--max-episodes", "2", "--update-timestep", "3", "--hidden-channel", "8",
    "--d-pos", "4", "--dropout-network", "0",
]


def test_stats_output(tmp_path, capsys, split_files):
    graph_path, _ = split_files
    assert main(["stats", graph_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["nodes: 10", "edges: 10", "avg_degree: 1.00"]


def test_stats_missing_file(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_stats_rejects_cyclic_graph(tmp_path, capsys):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "num_op_types": 1,
        "nodes": [{"id": 0, "op_type": 0, "output_shape": []},
                  {"id": 1, "op_type": 0, "output_shape": []}],
        "edges": [[0, 1], [1, 0]],
    }))
    assert main(["stats", str(path)]) == 2
    assert "cycle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind", ["chain", "diamond-chain", "random-dag", "inception-like"]
)
def test_gen_fixture_kinds(tmp_path, capsys, kind):
    out = tmp_path / kind
    code = main([
        "gen-fixture", "--kind", kind, "--size", "30", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    graph = load_graph(out / "graph.json")
    cm = load_cost_model(out / "cost_model.json")
    assert graph.num_nodes >= 1
    assert cm.num_op_types == 8 and cm.num_devices == 2


def test_gen_fixture_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["gen-fixture", "--kind", "random-dag", "--size", "20",
              "--seed", "7", "--out", str(out)])
    assert (a / "graph.json").read_bytes() == (b / "graph.json").read_bytes()
    assert (a / "cost_model.json").read_bytes() == (b / "cost_model.json").read_bytes()


def test_gen_fixture_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit):
        main(["gen-fixture", "--kind", "moebius", "--out", str(tmp_path)])


def test_baselines_table(tmp_path, capsys, split_files):
    graph_path, cm_path = split_files
    out = tmp_path / "base"
    code = main(["baselines", "--graph", graph_path, "--cost-model", cm_path,
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "baselines.csv")
    assert rows[0] == ["method", "latency", "speedup"]
    methods = [r[0] for r in rows[1:]]
    assert methods == ["cpu-only", "gpu-only", "random", "optimal"]
    assert float(rows[1][2]) == 0.0  # the baseline of the speedup column
    # every written speedup agrees with a recomputation from the latencies
    base = float(rows[1][1])
    for row in rows[1:]:
        assert abs(float(row[2]) - speedup(base, float(row[1]))) <= 0.1
    optimal = [r for r in rows if r[0] == "optimal"][0]
    assert float(optimal[1]) == pytest.approx(5.1, abs=1e-9)


def test_baselines_skip_optimal(tmp_path, split_files):
    graph_path, cm_path = split_files
    out = tmp_path / "base"
    main(["baselines", "--graph", graph_path, "--cost-model", cm_path,
          "--out", str(out), "--skip-optimal"])
    methods = [r[0] for r in read_csv(out / "baselines.csv")[1:]]
    assert methods == ["cpu-only", "gpu-only", "random"]


def test_baselines_random_is_seeded(tmp_path, split_files):
    graph_path, cm_path = split_files
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["baselines", "--graph", graph_path, "--cost-model", cm_path,
              "--out", str(out), "--seed", "5"])
    assert (a / "baselines.csv").read_bytes() == (b / "baselines.csv").read_bytes()


@pytest.mark.parametrize(
    "kind, reason",
    [
        ("all-zero", "latency"),
        ("one-device", "fewer than 2 devices"),
        ("no-transfer", "transfer"),
    ],
)
def test_degenerate_cost_model_is_a_usage_error(tmp_path, capsys, split_files, kind, reason):
    graph_path, good_path = split_files
    types = load_cost_model(good_path).num_op_types
    data = {
        "all-zero": {"compute": [[0.0, 0.0]] * types, "transfer": [[0.0, 0.0], [0.0, 0.0]]},
        "one-device": {"compute": [[1.0]] * types, "transfer": [[0.0]]},
        "no-transfer": {"compute": [[1.0, 1.0]] * types},
    }[kind]
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(data))
    for command in (["baselines"], ["train", *TRAIN_FLAGS]):
        code = main([*command, "--graph", graph_path, "--cost-model", str(bad),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err and reason in err
        assert not (tmp_path / "out").exists()


def _usage_errors(graph_path, cm_path, out_dir):
    """Run baselines and a short train; yield each one's exit code and stderr."""
    for command in (["baselines"], ["train", *TRAIN_FLAGS]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*command, "--graph", str(graph_path),
                         "--cost-model", str(cm_path), "--out", str(out_dir)])
        yield code, err.getvalue()


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 30),
    devices=st.integers(2, 4),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_zero_latency_device_is_a_usage_error(n, devices, seed, data):
    """Any device whose single-device latency is 0 (here: no compute cost
    and, on one device, no transfer) is rejected at load time."""
    g = random_dag(n, seed=seed)
    cm = random_cost_model(g.num_op_types, devices, seed=seed)
    free = data.draw(st.integers(0, devices - 1), label="free device")
    cm.compute[:, free] = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, cm_path = Path(tmp, "graph.json"), Path(tmp, "cm.json")
        save_graph(g, graph_path)
        save_cost_model(cm, cm_path)
        for code, err in _usage_errors(graph_path, cm_path, Path(tmp, "out")):
            assert code == 2, err
            assert str(cm_path) in err and f"device {free}-only latency" in err
        assert not Path(tmp, "out").exists()


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 20),
    seed=st.integers(0, 1000),
    shape=st.lists(st.integers(10**160, 10**300), min_size=2, max_size=4),
    data=st.data(),
)
def test_output_shape_overflowing_float64_is_a_usage_error(n, seed, shape, data):
    """A shape whose element count is past the float64 range is rejected
    when the graph loads, naming the file, instead of failing in the
    simulator plan."""
    g = random_dag(n, seed=seed)
    cm = random_cost_model(g.num_op_types, 2, seed=seed)
    node = data.draw(st.integers(0, n - 1), label="node")
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, cm_path = Path(tmp, "graph.json"), Path(tmp, "cm.json")
        save_graph(g, graph_path)
        save_cost_model(cm, cm_path)
        raw = json.loads(graph_path.read_text())
        raw["nodes"][node]["output_shape"] = shape
        graph_path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="overflows float64") as info:
            load_graph(graph_path)
        assert str(graph_path) in str(info.value)
        for code, err in _usage_errors(graph_path, cm_path, Path(tmp, "out")):
            assert code == 2, err
            assert str(graph_path) in err and "overflows float64" in err
        assert not Path(tmp, "out").exists()


def test_large_finite_output_shape_still_loads(tmp_path):
    g = random_dag(3, seed=0)
    raw = {"num_op_types": g.num_op_types,
           "nodes": [{"id": v.id, "op_type": v.op_type, "output_shape": [10**150, 10**150]}
                     for v in g.nodes],
           "edges": [list(e) for e in g.edges]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(raw))
    assert load_graph(path).plan.volumes == (1e300,) * 3


def test_baselines_speedup_stays_finite_for_huge_latencies(tmp_path, capsys):
    # volumes of 1e308 make every transfer cost about 1e306, so a random
    # placement's latency is finite but 100 times its gap to cpu-only is not
    g = random_dag(30, seed=0)
    raw = {"num_op_types": g.num_op_types,
           "nodes": [{"id": v.id, "op_type": v.op_type, "output_shape": [10**154, 10**154]}
                     for v in g.nodes],
           "edges": [list(e) for e in g.edges]}
    graph_path, cm_path = tmp_path / "graph.json", tmp_path / "cm.json"
    graph_path.write_text(json.dumps(raw))
    save_cost_model(random_cost_model(g.num_op_types, seed=0), cm_path)
    out = tmp_path / "out"
    code = main(["baselines", "--graph", str(graph_path), "--cost-model", str(cm_path),
                 "--out", str(out)])
    assert code == 0
    text = (out / "baselines.csv").read_text()
    assert "inf" not in text
    rows = read_csv(out / "baselines.csv")[1:]
    assert max(float(r[1]) for r in rows) > 1e300  # the latencies are huge
    assert all(math.isfinite(float(r[2])) for r in rows)


def _resolve(*flags):
    args = build_parser().parse_args(["train", "--graph", "g", "--cost-model", "c", *flags])
    return resolve_config(args)


def test_train_defaults_and_flags_come_from_library_configs():
    # `dagplace train` with no other flag trains what Trainer's own
    # defaults train, which the benchmark relies on
    run, *library = _resolve()
    assert run == RunConfig(graph="g", cost_model="c")
    defaults = [TrainConfig(), ModelConfig(), FeatureConfig()]
    assert library == defaults
    # one non-default value per library field, set through its own flag
    values = {
        "max_episodes": 7, "update_timestep": 3, "k_epochs": 2, "gamma": 0.5,
        "learning_rate": 0.01, "seed": 5, "use_baseline": True, "target_latency": 4.5,
        "hidden_channel": 8, "layer_gnn": 3, "layer_trans": 1, "layer_parsingnet": 3,
        "dropout_network": 0.1, "dropout_parsing": 0.3, "d_pos": 4, "pe_base": 100.0,
    }
    for i, default in enumerate(defaults):
        for f in fields(default):
            value = values.pop(f.name)
            assert getattr(default, f.name) != value
            flag = "--" + f.name.replace("_", "-")
            _, *library = _resolve(*([flag] if value is True else [flag, str(value)]))
            expected = list(defaults)
            expected[i] = replace(default, **{f.name: value})
            assert library == expected, flag
    assert not values  # every listed field belongs to a library config


def test_train_writes_artifacts(tmp_path, capsys, dominant_files):
    graph_path, cm_path = dominant_files
    out = tmp_path / "run"
    code = main(["train", "--graph", graph_path, "--cost-model", cm_path,
                 "--out", str(out), "--seed", "0", *TRAIN_FLAGS])
    assert code == 0

    history = read_csv(out / "history.csv")
    assert history[0] == ["step", "episode", "latency", "reward", "num_clusters"]
    assert len(history) == 1 + 2 * 3
    for row in history[1:]:
        assert float(row[3]) == pytest.approx(1.0 / float(row[2]), rel=1e-12)

    results = read_csv(out / "results.csv")
    methods = [r[0] for r in results[1:]]
    assert methods == [
        "cpu-only", "gpu-only", "random", "optimal", "trained-best", "trained-greedy"
    ]
    base = float(results[1][1])
    for row in results[1:]:
        assert abs(float(row[2]) - speedup(base, float(row[1]))) <= 0.1

    # the saved placement is the better of the two trained rows, on raw nodes
    placement = json.loads((out / "best_placement.json").read_text())
    assert placement["devices"] == ["CPU", "GPU"]
    assignments = placement["assignments"]
    assert len(assignments) == 6
    graph = load_graph(graph_path)
    cm = load_cost_model(cm_path)
    trained = {r[0]: float(r[1]) for r in results[-2:]}
    assert simulate(graph, assignments, cm) == pytest.approx(min(trained.values()))

    cfg = json.loads((out / "config.json").read_text())
    assert cfg["graph"] == graph_path
    assert cfg["hidden_channel"] == 8
    assert cfg["max_episodes"] == 2

    stdout = capsys.readouterr().out
    assert "trained 2 episodes (6 steps)" in stdout
    assert "artifacts written to" in stdout


def test_train_history_is_reproducible(tmp_path, dominant_files):
    graph_path, cm_path = dominant_files
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["train", "--graph", graph_path, "--cost-model", cm_path,
              "--out", str(out), "--seed", "3", *TRAIN_FLAGS])
    assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()


def test_train_no_colocate(tmp_path, dominant_files):
    graph_path, cm_path = dominant_files
    out = tmp_path / "run"
    code = main(["train", "--graph", graph_path, "--cost-model", cm_path,
                 "--out", str(out), "--no-colocate", *TRAIN_FLAGS])
    assert code == 0
    placement = json.loads((out / "best_placement.json").read_text())
    assert len(placement["assignments"]) == 6


def test_train_requires_graph_and_cost_model(capsys):
    assert main(["train", "--max-episodes", "1"]) == 2
    assert "graph and cost_model" in capsys.readouterr().err


def test_train_missing_cost_model_file(tmp_path, capsys, dominant_files):
    graph_path, _ = dominant_files
    code = main(["train", "--graph", graph_path,
                 "--cost-model", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, dominant_files):
    graph_path, cm_path = dominant_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": graph_path,
        "cost_model": cm_path,
        "max_episodes": 1,
        "update_timestep": 2,
        "hidden_channel": 8,
        "d_pos": 4,
        "dropout_network": 0,
    }))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--update-timestep", "4"])
    assert code == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["max_episodes"] == 1  # from the file
    assert saved["update_timestep"] == 4  # the flag wins
    assert len(read_csv(out / "history.csv")) == 1 + 4


def test_config_json_round_trips(tmp_path, dominant_files):
    # a run's config.json, fed back through --config, repeats the run
    graph_path, cm_path = dominant_files
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--graph", graph_path, "--cost-model", cm_path,
                 "--out", str(a), "--seed", "4", "--no-colocate", "--use-baseline",
                 "--gamma", "0.9", "--learning-rate", "0.01", *TRAIN_FLAGS]) == 0
    assert main(["train", "--config", str(a / "config.json"), "--out", str(b)]) == 0
    for name in ("history.csv", "results.csv", "best_placement.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    out_a, out_b = (f'"out": {json.dumps(str(path))}' for path in (a, b))
    config_a = (a / "config.json").read_text()
    assert out_a in config_a
    assert (b / "config.json").read_text() == config_a.replace(out_a, out_b)


def test_config_file_rejects_unknown_keys(tmp_path, capsys, dominant_files):
    graph_path, cm_path = dominant_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": graph_path, "cost_model": cm_path, "momentum": 0.9,
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "momentum" in capsys.readouterr().err


def test_config_file_must_be_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2, 3]")
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_file_rejects_wrong_value_type(tmp_path, capsys, dominant_files):
    graph_path, cm_path = dominant_files
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": graph_path, "cost_model": cm_path, "max_episodes": "ten",
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "cfg.json" in err and "max_episodes" in err
    cfg_path.write_text(json.dumps({
        "graph": graph_path, "cost_model": cm_path, "seed": True,
    }))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "seed" in capsys.readouterr().err
    # a ModelConfig and a FeatureConfig key are checked the same way
    for key, value in (("hidden_channel", 1.5), ("d_pos", "16")):
        cfg_path.write_text(json.dumps({
            "graph": graph_path, "cost_model": cm_path, key: value,
        }))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"malformed config file {cfg_path}: {key} must be int, got {value!r}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["learning_rate", "target_latency", "pe_base"])
def test_non_finite_setting_is_a_usage_error(tmp_path, capsys, dominant_files, key, value):
    """A NaN or infinite float setting exits 2, as a flag and as a value in
    the config file (which JSON writes as NaN or Infinity)."""
    graph_path, cm_path = dominant_files
    out = ["--out", str(tmp_path / "run")]
    assert main(["train", "--graph", graph_path, "--cost-model", cm_path, *out,
                 f"--{key.replace('_', '-')}={value}"]) == 2
    assert key in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": graph_path, "cost_model": cm_path, key: float(value),
    }))
    assert main(["train", "--config", str(cfg_path), *out]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_programming_error_in_a_command_exits_1(monkeypatch, capsys, split_files):
    import dagplace.cli as cli

    def broken(path):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "cmd_stats", broken)
    assert main(["stats", split_files[0]]) == 1
    assert "unsupported operand" in capsys.readouterr().err


def test_train_rejects_cyclic_graph(tmp_path, capsys, dominant_files):
    _, cm_path = dominant_files
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "num_op_types": 1,
        "nodes": [{"id": 0, "op_type": 0, "output_shape": []},
                  {"id": 1, "op_type": 0, "output_shape": []}],
        "edges": [[0, 1], [1, 0]],
    }))
    assert main(["train", "--graph", str(path), "--cost-model", cm_path]) == 2


def test_train_skip_optimal_row(tmp_path, dominant_files):
    graph_path, cm_path = dominant_files
    out = tmp_path / "run"
    main(["train", "--graph", graph_path, "--cost-model", cm_path,
          "--out", str(out), "--skip-optimal", *TRAIN_FLAGS])
    methods = [r[0] for r in read_csv(out / "results.csv")[1:]]
    assert "optimal" not in methods
    assert methods[-2:] == ["trained-best", "trained-greedy"]
