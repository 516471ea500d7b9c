"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of each
dagplace module and the methods of `CompGraph`, `Tape`, `Adam` and
`Trainer`. A function is wrapped under every name its callers bind, so
`dagplace.training.encode` and `dagplace.encoder.encode` both record
`encoder.encode` spans. A span holds its name, start, end, parent span and
run id, plus an optional number taken at the same boundary (edges scored,
clusters per node, tape entries, buffer bytes). Spans stay in memory until
the run writes them out.

A span's layer is the module that defines the function. A layer's self
time is the time of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

TRACED_FUNCTIONS = frozenset(
    {
        "dagplace.graph.load_graph",
        "dagplace.graph.colocate",
        "dagplace.graph.topo_sort",
        "dagplace.features.build_features",
        "dagplace.nn.mlp_forward",
        "dagplace.nn.dropout_mask",
        "dagplace.encoder.normalize_adjacency",
        "dagplace.encoder.encode",
        "dagplace.encoder.init_gcn",
        "dagplace.encoder.init_projection",
        "dagplace.partition.score_edges",
        "dagplace.partition.drop_edges",
        "dagplace.partition.retain_dominant_edges",
        "dagplace.partition.parse_clusters",
        "dagplace.partition.pool",
        "dagplace.partition.pool_features",
        "dagplace.policy.init_placer",
        "dagplace.policy.device_distribution",
        "dagplace.policy.sample_placement",
        "dagplace.policy.log_prob_of",
        "dagplace.policy.greedy_placement",
        "dagplace.policy.lift_placement",
        "dagplace.simulator.load_cost_model",
        "dagplace.simulator.simulate",
        "dagplace.simulator.brute_force_optimal",
    }
)

TAPE_PRIMITIVES = (
    "matmul", "add", "add_bias", "mul", "scale", "relu", "sigmoid", "log",
    "clip_min", "softmax_rows", "gather_rows", "scatter_add_rows", "sum",
)

TRACED_METHODS = {
    ("dagplace.graph", "CompGraph"): ("adjacency",),
    ("dagplace.autograd", "Tape"): TAPE_PRIMITIVES + ("backward",),
    ("dagplace.autograd", "Adam"): ("step", "zero_grad"),
    ("dagplace.training", "Trainer"): (
        "__init__", "step", "_reset_to_original", "surrogate_loss", "update",
        "run", "evaluate_greedy",
    ),
}

LAYERS = (
    "graph", "features", "nn", "autograd", "encoder", "partition", "policy",
    "simulator", "training",
)

# numbers recorded at a span boundary: name -> (when, fn). "pre" hooks see
# the call's arguments, "post" hooks the arguments and the result.
HOOKS = {
    "graph.colocate": ("post", lambda args, out: out[0].num_nodes / args[0].num_nodes),
    "partition.score_edges": ("post", lambda args, out: len(out.edges)),
    "partition.parse_clusters": ("post", lambda args, out: out.num_clusters / args[1].num_nodes),
    "autograd.Tape.backward": ("pre", lambda args: len(args[0])),
    "training.Trainer.update": (
        "pre",
        lambda args: sum(r.norm.nbytes + r.features.nbytes for r in args[0].buffer),
    ),
}

# span fields
NAME, START, END, PARENT, RUN, INFO = range(6)
STEP_AND_RUN = ("training.Trainer.step", "training.Trainer.run")


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


class Tracer:
    """Records spans while installed; `run_id` tags every new span."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        when, hook = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            if when == "pre":
                rec[INFO] = hook(args)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if when == "post":
                rec[INFO] = hook(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own phases (layer `bench`)."""
        rec = [self._name_id(name), 0.0, 0.0,
               self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name in the loaded dagplace modules; restore on exit."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "dagplace" or k.startswith("dagplace.")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val):
                    continue
                home = f"{val.__module__}.{val.__qualname__}"
                if home in TRACED_FUNCTIONS:
                    if id(val) not in wrappers:
                        wrappers[id(val)] = self._wrap(
                            val, f"{_layer(val.__module__)}.{val.__qualname__}"
                        )
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        for (modname, clsname), methods in TRACED_METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for meth in methods:
                val = cls.__dict__[meth]
                self._restore.append((cls, meth, val))
                setattr(cls, meth, self._wrap(val, f"{_layer(modname)}.{clsname}.{meth}"))
        try:
            yield self
        finally:
            while self._restore:
                owner, attr, val = self._restore.pop()
                setattr(owner, attr, val)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,run,name,start_s,end_s,info\n")
            for i, (nid, start, end, parent, run, info) in enumerate(self.spans):
                fh.write(f"{i},{parent},{run},{self.names[nid]},{start!r},{end!r},"
                         f"{'' if info is None else repr(info)}\n")

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer totals, counts and self times of the spans of one run."""
        ids = [i for i, s in enumerate(self.spans) if s[RUN] == run]
        return _metrics(ids, self.spans, self.names)


def _metrics(ids: list[int], all_spans: list[list], names: list[str]) -> dict[str, float]:
    name_of = {i: names[all_spans[i][NAME]] for i in ids}
    dur = {i: all_spans[i][END] - all_spans[i][START] for i in ids}
    children: dict[int, list[int]] = {i: [] for i in ids}
    for i in ids:
        p = all_spans[i][PARENT]
        if p in children:
            children[p].append(i)
    # whether a span runs inside Trainer.step or Trainer.run (parents start first)
    under: dict[int, frozenset] = {}
    for i in ids:
        up = under.get(all_spans[i][PARENT], frozenset())
        under[i] = up | {name_of[i]} if name_of[i] in STEP_AND_RUN else up
    by_name: dict[str, list[int]] = {}
    for i in ids:
        by_name.setdefault(name_of[i], []).append(i)

    def spans_named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in spans_named(name))

    def info(name):
        return [all_spans[i][INFO] for i in spans_named(name)]

    self_time = {i: dur[i] - sum(dur[c] for c in children[i]) for i in ids}
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            self_time[i] for i in ids if name_of[i].split(".", 1)[0] == layer
        )

    m["graph.colocate_s"] = total("graph.colocate")
    m["graph.colocate_ratio"] = statistics.median(info("graph.colocate"))
    m["graph.topo_sort_s"] = total("graph.topo_sort")
    m["graph.adjacency_s"] = total("graph.CompGraph.adjacency")
    m["graph.adjacency_calls"] = len(spans_named("graph.CompGraph.adjacency"))

    m["features.build_s"] = total("features.build_features")

    m["nn.mlp_forward_s"] = total("nn.mlp_forward")
    m["nn.mlp_forward_calls"] = len(spans_named("nn.mlp_forward"))
    m["nn.dropout_mask_s"] = total("nn.dropout_mask")

    m["autograd.backward_s"] = total("autograd.Tape.backward")
    m["autograd.tape_entries"] = statistics.median(
        sum(all_spans[c][INFO] for c in children[u] if name_of[c] == "autograd.Tape.backward")
        for u in spans_named("training.Trainer.update")
    )
    m["autograd.adam_step_s"] = total("autograd.Adam.step")
    prims = [f"autograd.Tape.{p}" for p in TAPE_PRIMITIVES]
    m["autograd.primitive_s"] = sum(total(p) for p in prims)
    m["autograd.primitive_calls"] = sum(len(spans_named(p)) for p in prims)

    m["encoder.normalize_adjacency_s"] = total("encoder.normalize_adjacency")
    m["encoder.normalize_adjacency_calls"] = len(spans_named("encoder.normalize_adjacency"))
    m["encoder.encode_s"] = total("encoder.encode")
    m["encoder.encode_calls"] = len(spans_named("encoder.encode"))

    m["partition.score_edges_s"] = total("partition.score_edges")
    m["partition.edges_scored"] = sum(info("partition.score_edges"))
    m["partition.retain_dominant_edges_s"] = total("partition.retain_dominant_edges")
    m["partition.parse_clusters_s"] = total("partition.parse_clusters")
    m["partition.pool_s"] = total("partition.pool")
    m["partition.pool_features_s"] = total("partition.pool_features")
    m["partition.cluster_ratio"] = statistics.median(
        all_spans[i][INFO] for i in spans_named("partition.parse_clusters")
        if "training.Trainer.step" in under[i]
    )

    steps = spans_named("training.Trainer.step")
    cascades, length = [], 0
    for s in steps:
        length += 1
        if any(name_of[c] == "training.Trainer._reset_to_original" for c in children[s]):
            cascades.append(length)
            length = 0
    m["partition.levels_per_cascade"] = statistics.median(cascades) if cascades else length

    m["policy.device_distribution_s"] = total("policy.device_distribution")
    m["policy.sample_placement_s"] = total("policy.sample_placement")
    m["policy.log_prob_of_s"] = total("policy.log_prob_of")

    sims = spans_named("simulator.simulate")
    m["simulator.simulate_s"] = sum(dur[i] for i in sims)
    m["simulator.simulate_calls"] = len(sims)
    m["simulator.simulate_us.p50"] = statistics.median(dur[i] for i in sims) * 1e6
    m["simulator.search_s"] = sum(
        dur[i] for i in ids
        if name_of[i].startswith("simulator.")
        and name_of.get(all_spans[i][PARENT]) == "bench.search"
    )

    step_ms = sorted(dur[i] * 1e3 for i in steps)
    m["training.steps_traced"] = len(steps)
    m["training.step_ms.p50"] = statistics.median(step_ms)
    m["training.step_ms.p95"] = _percentile(step_ms, 0.95)
    m["training.step_self_ms.p50"] = statistics.median(self_time[i] * 1e3 for i in steps)
    m["training.update_s.p50"] = statistics.median(
        dur[i] for i in spans_named("training.Trainer.update")
    )
    m["training.surrogate_loss_s"] = total("training.Trainer.surrogate_loss")
    m["training.evaluate_greedy_s"] = total("training.Trainer.evaluate_greedy")
    m["training.resets"] = len(spans_named("training.Trainer._reset_to_original"))
    m["training.buffer_mb"] = statistics.median(info("training.Trainer.update")) / 2**20
    m["training.forward_passes_per_step"] = sum(
        1 for i in spans_named("encoder.encode") if "training.Trainer.run" in under[i]
    ) / len(steps)
    m["trace.spans"] = len(ids)
    return m


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return sorted_values[k]
