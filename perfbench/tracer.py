"""Span tracer installed around evclplus from outside the package.

`Tracer.install()` replaces every public function of the six layer modules
(numerics, bayes_mlp, objectives, continual, data, harness) with a wrapper
that records one span per call, in every evclplus module that bound the
function: `sample_forward` imported into `continual` and `objectives` is
patched there too, and same-module calls such as `ewc_quadratic_penalty` ->
`mean_penalty` resolve through the patched module globals.
`SeededRng.standard_normal` is patched on the class.  `uninstall()` puts the
originals back.

A span is (name, start, end, parent span id, job id, work).  `work` is a
per-layer size: elements drawn, rows forwarded, bytes read, or the seed of a
`build_stream` call.  Wrappers never touch a random stream and return the
wrapped function's own result object, so a traced run writes the same bytes
as an untraced one.
"""

import functools
import inspect
import os
import statistics
import sys
import time

import numpy as np

LAYERS = ("numerics", "bayes_mlp", "objectives", "continual", "data", "harness")


def _elements(args, kwargs):
    return int(np.prod(kwargs.get("shape", args[1] if len(args) > 1 else ())))


def _rows(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _file_bytes(args, kwargs):
    return sum(os.path.getsize(p) for p in args[:2])


def _seed(args, kwargs):
    return int(kwargs.get("seed", args[1] if len(args) > 1 else -1))


WORK = {
    "numerics.standard_normal": _elements,
    "bayes_mlp.sample_forward": _rows,
    "data.load_idx": _file_bytes,
    "harness.build_stream": _seed,
}


class Tracer:
    """Collects spans in memory while installed; `take()` hands them over."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work_of = WORK.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                work = work_of(args, kwargs) if work_of else 0
                spans[sid] = (name, start, end, parent, self.job, work)

        return functools.update_wrapper(traced, fn)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        from evclplus.numerics import SeededRng

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"evclplus.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "evclplus" and not mod_name.startswith("evclplus."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        original = SeededRng.__dict__["standard_normal"]
        self._undo.append((SeededRng, "standard_normal", original))
        SeededRng.standard_normal = self.wrap("numerics.standard_normal", original)

    def uninstall(self):
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans):
    """Per span name: calls, total (inclusive) and self seconds, work, durations."""
    stats = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for sid, (name, start, end, _, _, work) in enumerate(spans):
        s = stats.get(name)
        if s is None:
            s = stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "work": 0, "durations": [], "works": []}
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[sid]
        s["work"] += work
        s["durations"].append(end - start)
        s["works"].append(work)
    return stats


def _quantile_ms(durations, q):
    if len(durations) < 2:
        return 1000.0 * durations[0] if durations else 0.0
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1000.0 * cuts[q - 1]


COUNT_METRICS = (
    "numerics.standard_normal.calls", "numerics.standard_normal.elements",
    "bayes_mlp.sample_forward.calls", "bayes_mlp.sample_forward.rows",
    "bayes_mlp.backprop.calls", "bayes_mlp.posterior_predict.calls",
    "objectives.network_kl.calls", "objectives.mean_penalty.calls",
    "objectives.asym_var_penalty.calls", "objectives.estimate_fisher_diag.calls",
    "continual.train_steps", "data.load_idx.calls", "data.load_idx.bytes",
    "data.stream_input_bytes", "harness.build_stream.calls",
    "harness.build_stream.redundant_share", "trace.spans",
)


def layer_metrics(spans, stream_input_bytes):
    """The per-layer metrics of one traced pass, keyed by metric name."""
    stats = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
             "durations": [], "works": []}

    def get(name):
        return stats.get(name, empty)

    m = {}
    for name in ("numerics.standard_normal", "bayes_mlp.sample_forward",
                 "bayes_mlp.backprop", "bayes_mlp.posterior_predict",
                 "objectives.network_kl", "objectives.mean_penalty",
                 "objectives.asym_var_penalty", "objectives.estimate_fisher_diag",
                 "data.load_idx"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("numerics.batch_cross_entropy_with_grad", "bayes_mlp.snapshot",
                 "bayes_mlp.clone_network", "objectives.elbo_loss",
                 "objectives.evclplus_loss", "objectives.ewc_quadratic_penalty",
                 "continual.adam_step", "continual.init_adam",
                 "continual.run_task_sequence", "continual.select_coreset_kcenter",
                 "continual.select_coreset_random", "data.make_permuted_tasks",
                 "data.make_split_tasks"):
        m[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("continual.run_task_sequence", "continual.finetune_on_coreset",
                 "continual.evaluate", "harness.build_stream",
                 "harness.run_experiment"):
        m[f"{name}.total_s"] = get(name)["total_s"]

    m["numerics.standard_normal.elements"] = get("numerics.standard_normal")["work"]
    forward = get("bayes_mlp.sample_forward")
    m["bayes_mlp.sample_forward.rows"] = forward["work"]
    m["bayes_mlp.sample_forward.p50_ms"] = _quantile_ms(forward["durations"], 50)
    m["bayes_mlp.sample_forward.p99_ms"] = _quantile_ms(forward["durations"], 99)
    adam = get("continual.adam_step")
    m["continual.train_steps"] = adam["calls"]
    m["continual.adam_step.p50_ms"] = _quantile_ms(adam["durations"], 50)
    m["data.load_idx.bytes"] = get("data.load_idx")["work"]
    m["data.stream_input_bytes"] = stream_input_bytes
    builds = get("harness.build_stream")
    m["harness.build_stream.calls"] = builds["calls"]
    m["harness.build_stream.redundant_share"] = (
        1.0 - len(set(builds["works"])) / builds["calls"] if builds["calls"] else 0.0)
    m["harness.write_outputs.total_s"] = sum(
        get(f"harness.{w}")["total_s"] for w in
        ("write_results_csv", "write_aggregate_csv", "render_accuracy_svg"))
    m["trace.spans"] = len(spans)
    return m


def time_shares(spans, wall):
    """Share of a traced pass's wall time per phase of the workload.

    `train` is `run_task_sequence` minus the phases it calls out to:
    minibatch gathers, forward and backward passes, losses and Adam steps.
    `other` is what no phase covers (job set-up between spans).
    """
    stats = summarize(spans)

    def total(*names):
        return sum(stats[n]["total_s"] for n in names if n in stats)

    phases = {
        "build_stream": total("harness.build_stream"),
        "fisher": total("objectives.estimate_fisher_diag"),
        "evaluate": total("continual.evaluate"),
        "coreset": total("continual.select_coreset_kcenter",
                         "continual.select_coreset_random",
                         "continual.finetune_on_coreset"),
        "outputs": total("harness.write_results_csv", "harness.write_aggregate_csv",
                         "harness.render_accuracy_svg"),
    }
    phases["train"] = total("continual.run_task_sequence") - sum(
        phases[p] for p in ("fisher", "evaluate", "coreset"))
    phases["other"] = wall - sum(phases.values())
    return {p: t / wall for p, t in phases.items()}


def write_spans(spans, path):
    """One CSV line per span: id, parent id, job, name, start, end, work."""
    with open(path, "w") as f:
        f.write("id,parent,job,name,start_s,end_s,work\n")
        for sid, (name, start, end, parent, job, work) in enumerate(spans):
            f.write(f"{sid},{parent},{job},{name},{start:.9f},{end:.9f},{work}\n")
