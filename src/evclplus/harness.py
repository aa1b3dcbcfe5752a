"""Experiment harness: config files, multi-seed runs, CSV tables, SVG plots.

Config files are plain ``key = value`` lines (``#`` starts a comment);
`methods` and `seeds` take comma-separated lists.  `parse_config` only turns
text into values; `ExperimentConfig` checks them, in library use too.  Every
run is deterministic: rerunning a config byte-reproduces the raw CSV.
"""

import argparse
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
import multiprocessing
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .bayes_mlp import NetworkSpec
from .continual import (Method, TrainConfig, config_key, forgetting_measure,
                        run_task_sequence)
from .data import (load_idx, make_permuted_tasks, make_split_tasks,
                   make_synthetic_tasks)

SPLIT_PAIRS = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]

# synthetic benchmark shape (desk-scale testing substrate)
SYNTHETIC_INPUT_DIM = 20
SYNTHETIC_SEPARATION = 8.0
SYNTHETIC_N_PER_CLASS = 313  # ~500 training examples per task after the 80/20 split
SYNTHETIC_HIDDEN = [32]

# name: (task kind, hidden dims, head dim, prefix of the IDX_SUFFIXES path
# keys or None); each task's `head` routes it: permuted tasks share head 0
BENCHMARKS = {
    "permuted_mnist": ("permuted", [100, 100], 10, "mnist"),
    "split_mnist": ("split", [256, 256], 2, "mnist"),
    "split_fashion": ("split", [150, 150, 150, 150], 2, "fashion"),
    "synthetic": ("synthetic", SYNTHETIC_HIDDEN, 2, None),
}
IDX_SUFFIXES = ("_images", "_labels", "_test_images", "_test_labels")


class ConfigError(ValueError):
    """Bad experiment config; message names the offending line or key."""


@dataclass
class ExperimentConfig(TrainConfig):
    """A config file: the training knobs plus what to run and where.  Building
    one checks every rule that needs no data, raising a ValueError that names
    the key, and turns method names into `Method` values."""

    benchmark: str = ""
    methods: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    n_tasks: int = 5
    mnist_images: str = ""
    mnist_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""
    fashion_images: str = ""
    fashion_labels: str = ""
    fashion_test_images: str = ""
    fashion_test_labels: str = ""
    out_dir: str = "results"

    _MINIMUMS = dict(TrainConfig._MINIMUMS, n_tasks=1)

    def __post_init__(self):
        super().__post_init__()
        for seed in self.seeds:
            if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
                raise ValueError(f"seeds must be integers, got {seed}")
            if not seed >= 0:  # SeededRng takes no negative seed
                raise ValueError(f"seeds must be >= 0, got {seed}")
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark: '{self.benchmark}' is not a valid "
                             f"benchmark (known: {', '.join(BENCHMARKS)})")
        tasks, _, _, prefix = BENCHMARKS[self.benchmark]
        if tasks == "split" and self.n_tasks > len(SPLIT_PAIRS):
            raise ValueError(f"n_tasks must be <= {len(SPLIT_PAIRS)} for "
                             f"{self.benchmark}, got {self.n_tasks}")
        for suffix in IDX_SUFFIXES if prefix else ():
            if not getattr(self, prefix + suffix):
                raise ValueError(f"{prefix}{suffix} must be set for benchmark "
                                 f"{self.benchmark}")
        try:
            self.methods = [Method(name) for name in self.methods]
        except ValueError as exc:
            raise ValueError(f"methods: {exc} (known: "
                             f"{', '.join(m.value for m in Method)})") from None
        # no job would leave an empty table; a repeated (method, seed) job
        # would write its results.csv rows twice
        for key, values in (("methods", [m.value for m in self.methods]),
                            ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{key} list is empty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{key}: '{value}' is repeated")
        for method in self.methods:
            self.check_method(method)
        if not self.out_dir:  # '' would pass the out_dir checks and fail the write
            raise ValueError("out_dir must be set")


def _value(kind, raw, line_no):
    """raw as a value of kind (int, float or str), else a ConfigError naming
    the line."""
    try:
        return kind(raw)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"line {line_no}: expected {expected}, got '{raw}'")


# keys that take a comma-separated list, and the kind of each item; every
# other key takes one value of its field's type
_LISTS = {"methods": str, "seeds": int}
_FIELDS = {config_key(f.name): f for f in fields(ExperimentConfig)}


def parse_config(path) -> ExperimentConfig:
    """Parse a key = value config file; unknown/duplicate keys are errors,
    and so is a file that is not UTF-8 text (a leading BOM is skipped)."""
    values = {}
    with open(path, encoding="utf-8-sig") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{text}'")
        key, raw = (part.strip() for part in text.split("=", 1))
        fld = _FIELDS.get(key)
        if fld is None:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if fld.name in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        if key not in _LISTS:
            values[fld.name] = _value(fld.type, raw, line_no)
            continue
        items = [part.strip() for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"line {line_no}: {key} list is empty")
        values[fld.name] = [_value(_LISTS[key], item, line_no) for item in items]
    for key in ("benchmark", "methods"):
        if key not in values:
            raise ConfigError(f"missing required key '{key}'")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_stream(config: ExperimentConfig, seed: int):
    """Construct (TaskStream, NetworkSpec) for one run of the benchmark.  The
    config's rules hold; a missing IDX file raises FileNotFoundError."""
    tasks, hidden, head_dim, prefix = BENCHMARKS[config.benchmark]
    if tasks == "synthetic":
        stream = make_synthetic_tasks(config.n_tasks, SYNTHETIC_N_PER_CLASS,
                                      SYNTHETIC_INPUT_DIM, SYNTHETIC_SEPARATION,
                                      seed)
    else:
        paths = {prefix + s: getattr(config, prefix + s) for s in IDX_SUFFIXES}
        for key, path in paths.items():
            if not os.path.exists(path):
                raise FileNotFoundError(f"{key}: no such file '{path}'")
        images, labels, test_images, test_labels = paths.values()
        base = (load_idx(images, labels), load_idx(test_images, test_labels))
        if tasks == "permuted":
            stream = make_permuted_tasks(base, config.n_tasks, seed)
        else:
            stream = make_split_tasks(base, SPLIT_PAIRS[:config.n_tasks])
    spec = NetworkSpec(input_dim=stream.input_dim, hidden_dims=list(hidden),
                       head_dim=head_dim)
    return stream, spec


@dataclass
class ResultsTable:
    """Raw per-(method, seed, after_task, eval_task) accuracies plus aggregates."""

    rows: list        # (method: str, seed, after_task, eval_task, accuracy)
    aggregates: list  # (method, after_task, avg_acc_mean, avg_acc_std, forgetting_mean)


def _worker(args):
    """One (method, seed) job's rows; a failure names the run, in either
    run_experiment path.  The job builds its own stream and, if any listed
    method keeps a coreset, rejects a coreset_size above the smallest stored
    training split before it trains: split sizes do not depend on the seed,
    so every job of the config raises that ConfigError."""
    config, method, seed = args
    try:
        stream, spec = build_stream(config, seed)
        coreset_methods = [m for m in config.methods if m.uses_coreset]
        smallest = min(len(task.stored[0]) for task in stream.tasks)
        if coreset_methods and config.coreset_size > smallest:
            raise ConfigError(f"coreset_size {config.coreset_size} exceeds the "
                              f"smallest training split ({smallest} rows) for "
                              f"method {coreset_methods[0].value}")
        matrix = run_task_sequence(method, config, stream, spec, seed)
        return [(method.value, seed, s + 1, t + 1, acc)
                for s, row in enumerate(matrix) for t, acc in enumerate(row)]
    except ConfigError:
        raise  # misconfiguration, identical for every run
    except Exception as exc:
        raise RuntimeError(
            f"run (method={method.value}, seed={seed}) failed: {exc}") from exc


def aggregate_rows(rows):
    """Per (method, after_task): mean/std over seeds of the running average
    accuracy, plus the mean forgetting measure (0 by convention after task 1).

    Raises ValueError naming the run if a run's rows are not exactly one
    accuracy per (after_task, eval_task <= after_task), or if a method's
    seeds ran different numbers of tasks."""
    matrices = {}
    for method, seed, s, t, acc in rows:
        matrices.setdefault((method, seed), {})[(s, t)] = acc
    per_run = {}
    for (method, seed), cells in matrices.items():
        T = max(s for s, _ in cells)
        want = {(s, t) for s in range(1, T + 1) for t in range(1, s + 1)}
        if cells.keys() != want:
            s, t = min(want ^ cells.keys())
            raise ValueError(f"run (method={method}, seed={seed}) has "
                             f"{'no' if (s, t) in want else 'an unexpected'} accuracy "
                             f"after task {s} on task {t}")
        per_run[(method, seed)] = [[cells[(s, t)] for t in range(1, s + 1)]
                                   for s in range(1, T + 1)]

    methods = sorted({m for m, _ in per_run})
    aggregates = []
    for method in methods:
        seeds = sorted(seed for m, seed in per_run if m == method)
        T = len(per_run[(method, seeds[0])])
        for seed in seeds[1:]:
            if len(per_run[(method, seed)]) != T:
                raise ValueError(f"task counts differ: run (method={method}, "
                                 f"seed={seeds[0]}) has {T}, run (method={method}, "
                                 f"seed={seed}) has {len(per_run[(method, seed)])}")
        for s in range(1, T + 1):
            avgs = [float(np.mean(per_run[(method, seed)][s - 1]))
                    for seed in seeds]
            forgets = [forgetting_measure(per_run[(method, seed)][:s])
                       if s >= 2 else 0.0 for seed in seeds]
            std = float(np.std(avgs, ddof=1)) if len(avgs) > 1 else 0.0
            aggregates.append((method, s, float(np.mean(avgs)), std,
                               float(np.mean(forgets))))
    return aggregates


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ResultsTable:
    """Run every (method, seed) pair; any failure aborts naming the run.
    Each job, serial or pooled, is sent only (config, method, seed) and
    builds its own stream (see _worker).  Jobs run in this process, or in up
    to `workers` (>= 1) forked ones, never more than there are jobs; the first
    failure is raised at once and ends every job still running or queued.  A
    killed worker fails the run naming every job that had not finished."""
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    jobs = [(config, method, seed) for method in config.methods
            for seed in config.seeds]
    workers = min(workers, len(jobs))
    if workers > 1:
        # a multiprocessing.Pool would wait forever for a killed worker, where
        # the executor raises BrokenProcessPool; it cannot stop a running job
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            futures = {pool.submit(_worker, job): job for job in jobs}
            try:
                results = [future.result() for future in as_completed(futures)]
            except BaseException as exc:
                for process in list(pool._processes.values()):
                    process.terminate()  # leaving the block joins them
                if not isinstance(exc, BrokenProcessPool):
                    raise
                # a worker was killed (by a signal, say): name every job
                # that did not finish, as the killed one cannot be told apart
                unfinished = ", ".join(
                    f"(method={method.value}, seed={seed})"
                    for future, (_, method, seed) in futures.items()
                    if not future.done() or future.exception() is not None)
                raise RuntimeError(f"run {unfinished} failed: {exc}") from exc
    else:
        results = map(_worker, jobs)
    rows = [row for result in results for row in result]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    return ResultsTable(rows=rows, aggregates=aggregate_rows(rows))


def write_results_csv(table: ResultsTable, path) -> None:
    """Raw rows, sorted, six decimal places."""
    with open(path, "w", newline="") as f:
        f.write("method,seed,after_task,eval_task,accuracy\n")
        for method, seed, s, t, acc in sorted(table.rows):
            f.write(f"{method},{seed},{s},{t},{acc:.6f}\n")


def write_aggregate_csv(table: ResultsTable, path) -> None:
    with open(path, "w", newline="") as f:
        f.write("method,after_task,avg_accuracy_mean,avg_accuracy_std,forgetting_mean\n")
        for method, s, mean, std, forget in sorted(table.aggregates):
            f.write(f"{method},{s},{mean:.6f},{std:.6f},{forget:.6f}\n")


def read_results_csv(path):
    """Inverse of write_results_csv.  Raises ValueError naming the line if a
    row is malformed, has an accuracy outside [0, 1] (nan included) or
    repeats an earlier row's (method, seed, after_task, eval_task)."""
    rows, seen = [], {}
    with open(path) as f:
        header = f.readline().strip()
        if header != "method,seed,after_task,eval_task,accuracy":
            raise ValueError(f"{path}: unexpected header '{header}'")
        for line_no, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                method, seed, s, t, acc = line.split(",")
                row = (method, int(seed), int(s), int(t), float(acc))
            except ValueError as exc:
                raise ValueError(f"{path} line {line_no}: malformed row "
                                 f"'{line}' ({exc})") from None
            if not 0.0 <= row[4] <= 1.0:  # also rejects nan
                raise ValueError(f"{path} line {line_no}: accuracy {acc} is not in "
                                 f"[0, 1]")
            if row[:4] in seen:
                raise ValueError(f"{path} line {line_no}: repeats the (method, seed, "
                                 f"after_task, eval_task) of line {seen[row[:4]]}")
            seen[row[:4]] = line_no
            rows.append(row)
    return rows


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f"]


def render_accuracy_svg(table: ResultsTable, path) -> None:
    """Average-accuracy-vs-tasks-trained curves, one polyline per method;
    the legend escapes &, < and > in method names."""
    if not table.aggregates:
        raise ValueError("nothing to plot: results table has no aggregate rows")
    series = {}
    for method, s, mean, _, _ in table.aggregates:
        series.setdefault(method, []).append((s, min(max(mean, 0.0), 1.0)))
    max_task = max(s for pts in series.values() for s, _ in pts)

    width, height = 640, 440
    left, right, top, bottom = 60, 170, 20, 50
    plot_w, plot_h = width - left - right, height - top - bottom

    def sx(s):
        return left if max_task == 1 else left + plot_w * (s - 1) / (max_task - 1)

    def sy(v):
        return top + plot_h * (1.0 - v)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for i in range(6):  # y ticks at 0, 0.2, ..., 1.0
        v = i / 5
        y = sy(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{v:.1f}</text>')
    for s in range(1, max_task + 1):
        x = sx(s)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle" font-size="11">{s}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" '
                 'text-anchor="middle" font-size="13">tasks trained</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="13" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.1f})" '
                 'text-anchor="middle">average accuracy</text>')

    for i, (method, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(s):.1f},{sy(v):.1f}" for s, v in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        ly = top + 16 + 18 * i
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        name = method.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def _cmd_run(args) -> int:
    try:
        config = parse_config(args.config)
        if args.out is not None:  # replace re-runs the checks: --out "" is rejected
            config = replace(config, out_dir=args.out)
    except (OSError, ValueError) as exc:  # a ConfigError, or a path it cannot read
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # the nearest existing ancestor must be a directory for the outputs to
    # be written; checked before any job trains
    ancestor = os.path.abspath(config.out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        where = ("exists" if ancestor == os.path.abspath(config.out_dir)
                 else f"is below '{ancestor}', which exists")
        print(f"config error: out_dir '{config.out_dir}' {where} and is not a "
              f"directory", file=sys.stderr)
        return 1
    try:
        table = run_experiment(config, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    outputs = [(write_results_csv, os.path.join(config.out_dir, "results.csv")),
               (write_aggregate_csv, os.path.join(config.out_dir, "aggregate.csv")),
               (render_accuracy_svg, os.path.join(config.out_dir, "accuracy.svg"))]
    path = config.out_dir
    try:
        os.makedirs(path, exist_ok=True)
        for write, path in outputs:
            write(table, path)
    except OSError as exc:
        print(f"run failed: cannot write '{path}': {exc}", file=sys.stderr)
        return 2
    print(f"wrote {', '.join(path for _, path in outputs)}")
    return 0


def _cmd_plot(args) -> int:
    try:
        rows = read_results_csv(args.results)
        table = ResultsTable(rows=rows, aggregates=aggregate_rows(rows))
        render_accuracy_svg(table, args.out)
    except (OSError, ValueError) as exc:
        print(f"plot failed: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def _cmd_selftest(_args) -> int:
    from .verify import selftest

    return 0 if selftest() else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evclplus",
        description="Continual-learning benchmark harness (EVCL+ and baselines)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="override out_dir")
    run_p.add_argument("--workers", type=int, default=1, help="jobs run at once")
    run_p.set_defaults(fn=_cmd_run)

    plot_p = sub.add_parser("plot", help="re-plot a raw results CSV")
    plot_p.add_argument("--results", required=True)
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(fn=_cmd_plot)

    self_p = sub.add_parser("selftest", help="run the numeric oracle suite")
    self_p.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)
