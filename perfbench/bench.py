"""One workload run in a fresh process: timed passes, output checks, metrics.

Usage (normally started by run.py, which makes the fake IDX inputs first):

    python3 perfbench/bench.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out RESULT.json

A pass runs the workload the way `evclplus run` does: the parsed config goes
through `harness.run_experiment` (serial, one call per (method, seed) job so
that a failing job is counted, not fatal), then the three writers.  Jobs run
as a closed loop: each starts when the previous one has ended.  Passes repeat
until the next one would overrun --seconds; every pass does the same work,
so the figures are medians over passes.

With --trace 1 untraced and traced passes alternate.  The traced passes give
the per-layer metrics; their difference in wall time is the tracing overhead.

Every run also replays one job of the committed configs/synthetic_quick.cfg,
outside the timed passes, and compares its rows byte for byte with the
committed results/synthetic_quick/results.csv.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from evclplus import harness  # noqa: E402
from evclplus.continual import FINETUNE_EPOCH_CAP, Method  # noqa: E402

import tracer as tr  # noqa: E402

GOLDEN = os.path.join(ROOT, "results", "synthetic_quick", "results.csv")
HEADER = "method,seed,after_task,eval_task,accuracy\n"

# Each workload is a config as a user would write it over fake IDX files, cut
# to two tasks (the fewest that exercise the cross-task anchors) so that
# several passes fit in one run.
WORKLOAD_CONFIGS = {
    # 784-256-256-2 at batch 256: BLAS, weight-noise draw, KL and anchors.
    # Few rows and several epochs keep training most of the pass, as in a
    # full 100-epoch run, where per-task Fisher and evaluation costs vanish;
    # fisher_samples stays below the task size, as on real MNIST.
    "split_mnist_fake": "benchmark = split_mnist\nmethods = evclplus, evcl\n"
                        "epochs = 5\nfisher_samples = 1000\ncoreset_size = 0\n",
    # 784-100-100-10 shared head: data path, memory, gathers, eval, Fisher
    "permuted_mnist_fake": "benchmark = permuted_mnist\nmethods = evclplus, ewc\n"
                           "epochs = 1\n",
    # coreset selection and finetuning, kept apart so k-center cannot swamp
    # the split workload
    "coreset_fake": "benchmark = split_mnist\n"
                    "methods = vcl_random_coreset, vcl_kcenter_coreset\n"
                    "epochs = 1\ncoreset_size = 200\n",
}
# (train, test) rows of each workload's fake MNIST files
FAKE_ROWS = {"split_mnist_fake": (6000, 1000),
             "permuted_mnist_fake": (12000, 2000),
             "coreset_fake": (12000, 2000)}
N_TASKS = 2
SETUP_SAMPLE_S = 0.25
IDX_NAMES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def workload_config(name, seed, work):
    """The parsed config of a workload over the IDX files in work."""
    out_dir = os.path.join(work, "out")
    paths = [os.path.join(work, n) for n in IDX_NAMES]
    text = WORKLOAD_CONFIGS[name] + (
        f"seeds = {seed}\nn_tasks = {N_TASKS}\nbatch_size = 256\n"
        f"mnist_images = {paths[0]}\nmnist_labels = {paths[1]}\n"
        f"mnist_test_images = {paths[2]}\nmnist_test_labels = {paths[3]}\n"
        f"out_dir = {out_dir}\n")
    cfg_path = os.path.join(work, f"{name}.cfg")
    with open(cfg_path, "w") as f:
        f.write(text)
    return harness.parse_config(cfg_path)


@dataclass
class JobPlan:
    """Work one (method, seed) job must do, derived from config and stream."""

    method: Method
    seed: int
    train_steps: int
    train_examples: int
    sampled_forwards: int


def plan_job(method, seed, config, stream):
    """Count optimizer steps, examples consumed and sampled forward passes.

    Mirrors the training schedule of `continual.run_task_sequence`: each
    task trains `epochs` passes over its data minus the coreset it gives
    up; coreset_only trains on the coreset union instead; the two VCL
    coreset methods finetune a copy on the union for at most
    FINETUNE_EPOCH_CAP epochs before each evaluation.
    """
    steps = examples = 0
    coresets = []

    def train(sizes, epochs):
        nonlocal steps, examples
        for n in sizes:
            steps += epochs * math.ceil(n / config.batch_size)
            examples += epochs * n

    for task in stream.tasks:
        n = len(task.train)
        if method.uses_coreset and config.coreset_size > 0:
            n -= config.coreset_size
            coresets.append(config.coreset_size)
        train(coresets if method is Method.CORESET_ONLY else [n], config.epochs)
        if method in (Method.VCL_RANDOM_CORESET, Method.VCL_KCENTER_CORESET):
            train(coresets, min(config.epochs, FINETUNE_EPOCH_CAP))
    n_tasks = len(stream.tasks)
    evaluations = n_tasks * (n_tasks + 1) // 2
    sampled = 0 if method.deterministic else (
        steps + evaluations * config.eval_samples)
    return JobPlan(method, seed, steps, examples, sampled)


def stream_input_bytes(stream):
    return sum(t.train.inputs.nbytes + t.test.inputs.nbytes for t in stream.tasks)


def golden_rows(config):
    """Committed golden lines for config's methods, seeds and tasks."""
    methods = {m.value for m in config.methods}
    with open(GOLDEN) as f:
        if f.readline() != HEADER:
            raise ValueError(f"{GOLDEN}: unexpected header")
        lines = [line for line in f if line.strip()]
    keep = {}
    for line in lines:
        method, seed, after, evaluated, _ = line.split(",")
        if (method in methods and int(seed) in config.seeds
                and int(after) <= config.n_tasks):
            keep[(method, int(seed), int(after), int(evaluated))] = line
    return keep


def check_job(rows, method, seed, n_tasks, golden):
    """None if the job's rows are complete, in range and match the golden."""
    expected = {(method.value, seed, s, t) for s in range(1, n_tasks + 1)
                for t in range(1, s + 1)}
    got = {r[:4] for r in rows}
    if got != expected or len(rows) != len(expected):
        return f"rows {sorted(got)} != expected {sorted(expected)}"
    for row in rows:
        acc = row[4]
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
            return f"accuracy {acc!r} outside [0, 1] in row {row}"
        if golden is not None:
            line = f"{row[0]},{row[1]},{row[2]},{row[3]},{acc:.6f}\n"
            if golden.get(row[:4]) != line:
                return f"row {line.strip()} differs from golden {golden.get(row[:4])!r}"
    return None


def golden_job(seed):
    """The synthetic_quick job checked for benchmark seed `seed`.

    Consecutive seeds walk through every (method, seed) job of the
    committed config.
    """
    config = harness.parse_config(os.path.join(ROOT, "configs",
                                               "synthetic_quick.cfg"))
    method = config.methods[seed % len(config.methods)]
    run_seed = config.seeds[seed // len(config.methods) % len(config.seeds)]
    return replace(config, methods=[method], seeds=[run_seed])


def check_golden(job):
    """Run a golden_job; None if its rows match the committed CSV."""
    method, run_seed = job.methods[0], job.seeds[0]
    try:
        table = harness.run_experiment(job, workers=1)
    except Exception:  # reported as a failed job
        return f"golden {method.value}/{run_seed}: {traceback.format_exc()}"
    problem = check_job(table.rows, method, run_seed, job.n_tasks,
                        golden_rows(job))
    return problem and f"golden {method.value}/{run_seed}: {problem}"


def run_pass(config, plans, tracer=None):
    """Run every job once, then write the outputs.  Returns a pass record."""
    start = time.perf_counter()
    rows, failures, job_walls = [], [], []
    for job, plan in enumerate(plans):
        if tracer is not None:
            tracer.job = job
        job_config = replace(config, methods=[plan.method], seeds=[plan.seed])
        job_start = time.perf_counter()
        try:
            table = harness.run_experiment(job_config, workers=1)
        except Exception:  # a failed job is counted, not fatal
            failures.append(f"{plan.method.value}/{plan.seed}: "
                            f"{traceback.format_exc()}")
            continue
        finally:
            job_walls.append(time.perf_counter() - job_start)
        problem = check_job(table.rows, plan.method, plan.seed, config.n_tasks,
                            None)
        if problem:
            failures.append(f"{plan.method.value}/{plan.seed}: {problem}")
        rows.extend(table.rows)
    if tracer is not None:
        tracer.job = -1
    os.makedirs(config.out_dir, exist_ok=True)
    raw = os.path.join(config.out_dir, "results.csv")
    output_error = None
    try:
        table = harness.ResultsTable(rows=rows,
                                     aggregates=harness.aggregate_rows(rows))
        harness.write_results_csv(table, raw)
        harness.write_aggregate_csv(table, os.path.join(config.out_dir,
                                                        "aggregate.csv"))
        harness.render_accuracy_svg(table, os.path.join(config.out_dir,
                                                        "accuracy.svg"))
    except (OSError, ValueError) as exc:  # e.g. no rows left to plot
        output_error = f"writing outputs: {exc!r}"
        with open(raw, "w") as f:
            f.write(HEADER)
    wall = time.perf_counter() - start
    with open(raw, "rb") as f:
        csv_bytes = f.read()
    return {"wall_s": wall, "job_wall_s": job_walls, "rows": rows,
            "failures": failures, "output_error": output_error,
            "results_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "csv_bytes": csv_bytes}


def final_avg_acc(rows, n_tasks):
    """Mean over jobs of the average accuracy after the last task."""
    finals = {}
    for method, seed, after, _, acc in rows:
        if after == n_tasks:
            finals.setdefault((method, seed), []).append(acc)
    if not finals:
        return 0.0
    return statistics.fmean(statistics.fmean(v) for v in finals.values())


def blas_threads():
    """Threads OpenBLAS uses in this process, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            get = getattr(lib, symbol, None)
            if get is not None:
                return int(get())
    return None


def time_setup(config, seed):
    """Seconds of `harness.build_stream` calls for the first job.

    Calls repeat until SETUP_SAMPLE_S has been spent, so that a workload
    with a set-up of milliseconds still gives several samples per pass.
    """
    samples = []
    while sum(samples) < SETUP_SAMPLE_S:
        t0 = time.perf_counter()
        harness.build_stream(config, seed)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(args):
    config = workload_config(args.workload, args.seed, args.work)
    stream, _ = harness.build_stream(config, config.seeds[0])
    plans = [plan_job(m, s, config, stream) for m in config.methods
             for s in config.seeds]
    input_bytes = stream_input_bytes(stream)
    del stream

    tracer = tr.Tracer() if args.trace else None
    untraced, traced, setup, layer_runs, kept_spans = [], [], [], [], None
    share_runs = []
    deadline = time.perf_counter() + args.seconds
    costs = []
    while True:
        began = time.perf_counter()
        use_trace = tracer is not None and len(untraced) > len(traced)
        if tracer is None:
            setup.extend(time_setup(config, config.seeds[0]))
        if use_trace:
            tracer.install()
            try:
                record = run_pass(config, plans, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layer_runs.append(tr.layer_metrics(spans, input_bytes))
            share_runs.append(tr.time_shares(spans, record["wall_s"]))
            if kept_spans is None:
                kept_spans = spans
            traced.append(record)
        else:
            untraced.append(run_pass(config, plans))
        costs.append(time.perf_counter() - began)
        need_more = tracer is not None and not traced
        if not need_more and time.perf_counter() + statistics.median(costs) > deadline:
            break

    passes = untraced + traced
    failures = [f for p in passes for f in p["failures"]]
    gold = golden_job(args.seed)
    golden_problem = check_golden(gold)
    if golden_problem:
        failures.append(golden_problem)
    attempted = len(plans) * len(passes) + 1
    failed_jobs = len(failures)
    digests = {p["results_sha256"] for p in passes}
    problems = failures + [p["output_error"] for p in passes if p["output_error"]]
    if len(digests) > 1:  # traced passes included: tracing must not change bytes
        problems.append(f"results.csv differs between passes: {sorted(digests)}")
    if layer_runs:
        counts = [{k: run[k] for k in tr.COUNT_METRICS} for run in layer_runs]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced passes")

    walls = [p["wall_s"] for p in untraced]
    wall = statistics.median(walls)
    examples = sum(p.train_examples for p in plans)
    result = {
        "workload": args.workload, "seed": args.seed,
        "config_seeds": config.seeds, "n_tasks": config.n_tasks,
        "methods": [m.value for m in config.methods],
        "correct": not problems, "attempted": attempted,
        "failed": failed_jobs,
        "problems": problems[:20],
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "job_wall_s": [p["job_wall_s"] for p in passes],
        "traced_passes": len(traced), "setup_samples": len(setup),
        "results_sha256": passes[0]["results_sha256"],
        "golden_job": f"{gold.methods[0].value}/{gold.seeds[0]}",
        "blas_threads": blas_threads(),
        "train_examples_per_pass": examples,
        "train_steps_per_pass": sum(p.train_steps for p in plans),
        "sampled_forwards_per_pass": sum(p.sampled_forwards for p in plans),
    }
    if tracer is None:
        result["metrics"] = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "train_examples_per_s": examples / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_avg_acc": final_avg_acc(passes[0]["rows"], config.n_tasks),
            "success_rate": 1.0 - failed_jobs / attempted,
        }
    else:
        metrics = {k: (layer_runs[0][k] if k in tr.COUNT_METRICS else
                       statistics.median(run[k] for run in layer_runs))
                   for k in layer_runs[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - wall)
        result["metrics"] = metrics
        result["time_shares"] = {k: statistics.median(run[k] for run in share_runs)
                                 for k in share_runs[0]}
        tr.write_spans(kept_spans, os.path.join(args.work, "spans.csv"))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = measure(args)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
