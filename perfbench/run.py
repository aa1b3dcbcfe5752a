"""Benchmark of the evclplus reproduction: one workload run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it is also found from this file's path).
Each workload first gets fake MNIST-format IDX files, written with
`evclplus.data.write_idx` from --seed outside every timed region.  The
workload then runs in a fresh child process (bench.py), so that its peak
RSS is its own.  BLAS keeps the host's default thread count, as a user's
run would, capped at the CPUs this process may use; the count in use is
reported.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced passes (--trace 1).  The line before it holds the details: every
pass time, problems found, the sha256 of results.csv, the golden job
checked, input generation time and provenance.  Workloads, metrics and
bounds are listed in BENCHMARK.json.  Exits 2 without a result when the checkout lacks the program or its golden
CSV, or when the workload run fails.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# time the child may take beyond --seconds: its last pass may overrun, and
# the golden synthetic_quick job and the start-up come on top
GRACE_S = 110.0
SANDBOX = ("shared host: other tenants' load (steal time, contention for the "
           "cores) changes the speed of identical passes by up to 1.7x; no CPU "
           "pinning, page-cache dropping or frequency control is used, so "
           "figures are medians over passes")


def write_fake_idx(work, seed, n_train, n_test):
    """Fake MNIST: 28x28 uint8 images of 10 balanced, overlapping classes.

    Each class is a Gaussian blob in a 10-dimensional latent space, centred
    on its own axis; images are a fixed random projection of the latent
    point through a logistic, mostly dark like MNIST digits, so a class is
    easy to learn within a few steps.  A fixed share of each label's images
    is drawn from another class, so no method reaches 1.0 and accuracy does
    not hinge on the seed.  Every label has exactly a tenth of the rows, so
    every seed gives tasks of the same sizes and the same amount of work.
    """
    import numpy as np
    from evclplus.data import Dataset, write_idx

    latent_shift, mislabeled_share = 5.0, 0.1
    rng = np.random.Generator(np.random.Philox(seed))
    projection = rng.standard_normal((10, 784))
    offset = rng.standard_normal(784) * 0.5 - 3.0
    names = iter(("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                  "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"))
    for n in (n_train, n_test):
        labels = rng.permutation(np.arange(n) % 10)
        looks = np.where(rng.random(n) < mislabeled_share,
                         (labels + rng.integers(1, 10, n)) % 10, labels)
        latent = rng.standard_normal((n, 10))
        latent[np.arange(n), looks] += latent_shift
        pixels = np.rint(255.0 / (1.0 + np.exp(-(latent @ projection + offset))))
        write_idx(Dataset(pixels / 255.0, labels, 10),
                  os.path.join(work, next(names)), os.path.join(work, next(names)),
                  rows=28, cols=28)


def cpu_steal_ticks():
    """(steal, total) jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def provenance(seed, fake_rows, blas_threads):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    revision = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads, "nproc": usable_cpus(),
            "python": platform.python_version(), "git_revision": revision,
            "workload_seed": seed, "fake_idx_rows": list(fake_rows),
            "sandbox": SANDBOX}


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description="evclplus benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be >= 1")
    for needed in ("src/evclplus/harness.py", "configs/synthetic_quick.cfg",
                   "results/synthetic_quick/results.csv"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"{needed} is missing: run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from bench import FAKE_ROWS, WORKLOAD_CONFIGS

    if args.workload not in WORKLOAD_CONFIGS:
        return fail(f"unknown workload {args.workload!r} "
                    f"(known: {', '.join(WORKLOAD_CONFIGS)})")
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    write_fake_idx(work, args.seed, *FAKE_ROWS[args.workload])
    gen_s = time.perf_counter() - t0

    out = os.path.join(work, "result.json")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if env.get(var, "").isdigit() and int(env[var]) > usable_cpus():
            env[var] = str(usable_cpus())
    steal_before = cpu_steal_ticks()
    try:
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--out", out],
            cwd=ROOT, env=env, timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        return fail("workload run did not finish in time")
    if child.returncode != 0 or not os.path.isfile(out):
        return fail(f"workload run exited with code {child.returncode}")
    steal_after = cpu_steal_ticks()
    with open(out) as f:
        result = json.load(f)
    for idx_name in os.listdir(work):
        if idx_name.endswith("-ubyte"):
            os.remove(os.path.join(work, idx_name))

    details = {k: v for k, v in result.items() if k != "metrics"}
    details["fake_idx_gen_s"] = gen_s
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        details["host_steal_share"] = ((steal_after[0] - steal_before[0])
                                       / (steal_after[1] - steal_before[1]))
    details["provenance"] = provenance(args.seed, FAKE_ROWS[args.workload],
                                       details.pop("blas_threads"))
    with open(os.path.join(work, "report.json"), "w") as f:
        json.dump(dict(details, metrics=result["metrics"]), f, indent=1)

    units = _units(args.trace)
    if set(units) != set(result["metrics"]):
        return fail(f"metrics {sorted(result['metrics'])} do not match "
                    f"BENCHMARK.json {sorted(units)}")
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def _units(trace):
    """Metric name -> unit for the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
