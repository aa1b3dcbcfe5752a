"""Tests of the benchmark itself: tracer wrappers, step and draw counts,
repeatable counts, byte-identical traced output, and failing without the
program.  Run with `python -m pytest perfbench` from the repository root."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import tracer as tr
from evclplus import bayes_mlp, continual, harness, objectives
from evclplus.continual import Method
from evclplus.numerics import SeededRng

HERE = os.path.dirname(os.path.abspath(__file__))

TINY = dict(benchmark="synthetic", seeds=[0], n_tasks=2, epochs=1, batch_size=16,
            fisher_samples=100, coreset_size=20, eval_samples=3)
TINY_METHODS = [Method.EVCL_PLUS, Method.EWC, Method.VCL_RANDOM_CORESET,
                Method.CORESET_ONLY]


def tiny_run(tmp_path, traced):
    """One pass over a small synthetic config; returns (config, plans, pass, spans)."""
    config = harness.ExperimentConfig(methods=TINY_METHODS, out_dir=str(tmp_path),
                                      **TINY)
    stream, _ = harness.build_stream(config, 0)
    plans = [bench.plan_job(m, 0, config, stream) for m in config.methods]
    if not traced:
        return config, plans, bench.run_pass(config, plans), []
    tracer = tr.Tracer()
    tracer.install()
    try:
        record = bench.run_pass(config, plans, tracer)
    finally:
        tracer.uninstall()
    return config, plans, record, tracer.take()


class TestWrappers:
    def test_returns_the_same_object_and_records_nesting(self):
        tracer = tr.Tracer()
        payload = object()
        inner = tracer.wrap("t.inner", lambda value: value)
        outer = tracer.wrap("t.outer", lambda value: inner(value))
        assert outer(payload) is payload
        spans = tracer.take()
        assert [s[0] for s in spans] == ["t.outer", "t.inner"]
        assert spans[0][3] == -1 and spans[1][3] == 0
        assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]

    def test_reraises_and_closes_the_span(self):
        tracer = tr.Tracer()

        def boom(_):
            raise KeyError("boom")

        wrapped = tracer.wrap("t.boom", boom)
        with pytest.raises(KeyError, match="boom"):
            wrapped(1)
        spans = tracer.take()
        assert len(spans) == 1 and spans[0][0] == "t.boom"

    def test_install_patches_every_binding_and_uninstall_restores(self):
        original = bayes_mlp.sample_forward
        draw = SeededRng.standard_normal
        tracer = tr.Tracer()
        tracer.install()
        try:
            assert bayes_mlp.sample_forward is not original
            assert continual.sample_forward is bayes_mlp.sample_forward
            assert objectives.sample_forward is bayes_mlp.sample_forward
            assert objectives.mean_penalty.__wrapped__ is not None
            assert SeededRng.standard_normal is not draw
        finally:
            tracer.uninstall()
        assert bayes_mlp.sample_forward is original
        assert continual.sample_forward is original
        assert objectives.sample_forward is original
        assert SeededRng.standard_normal is draw


class TestTracedRun:
    def test_traced_bytes_match_and_counts_match_the_plan(self, tmp_path):
        _, _, plain, _ = tiny_run(tmp_path / "plain", traced=False)
        config, plans, record, spans = tiny_run(tmp_path / "traced", traced=True)
        assert not plain["failures"] and not record["failures"]
        assert record["csv_bytes"] == plain["csv_bytes"]

        metrics = tr.layer_metrics(spans, 0)
        assert metrics["continual.train_steps"] == sum(p.train_steps for p in plans)
        assert metrics["harness.build_stream.calls"] == len(plans)

        net = bayes_mlp.init_network(
            bayes_mlp.NetworkSpec(harness.SYNTHETIC_INPUT_DIM,
                                  harness.SYNTHETIC_HIDDEN, 2), SeededRng(0))
        body = sum(l.w_mu.size + l.b_mu.size for l in net.body)
        head = net.heads[0].w_mu.size + net.heads[0].b_mu.size
        jobs, tasks, d = len(plans), config.n_tasks, harness.SYNTHETIC_INPUT_DIM
        by_parent = {}
        for name, _, _, parent, _, work in spans:
            if name == "numerics.standard_normal":
                key = spans[parent][0] if parent >= 0 else None
                by_parent[key] = by_parent.get(key, 0) + work
        sampled = sum(p.sampled_forwards for p in plans)
        assert by_parent == {
            "bayes_mlp.sample_forward": sampled * (body + head),
            "bayes_mlp.init_network": jobs * (body + head),
            "bayes_mlp.add_head": jobs * (tasks - 1) * head,
            "data.make_synthetic_tasks":
                jobs * tasks * (d + 2 * harness.SYNTHETIC_N_PER_CLASS * d),
        }
        assert metrics["numerics.standard_normal.elements"] == sum(by_parent.values())

    def test_time_shares_cover_the_pass(self, tmp_path):
        _, _, record, spans = tiny_run(tmp_path, traced=True)
        shares = tr.time_shares(spans, record["wall_s"])
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in shares.values())
        assert shares["fisher"] > 0.0 and shares["coreset"] > 0.0

    def test_two_traced_runs_give_identical_counts(self, tmp_path):
        runs = [tr.layer_metrics(tiny_run(tmp_path / str(i), traced=True)[3], 0)
                for i in range(2)]
        counts = [{k: run[k] for k in tr.COUNT_METRICS} for run in runs]
        assert counts[0] == counts[1]
        assert counts[0]["continual.train_steps"] > 0


def test_check_job_flags_out_of_range_and_golden_mismatch():
    rows = [("vcl", 0, 1, 1, 0.5)]
    assert bench.check_job(rows, Method.VCL, 0, 1, None) is None
    assert "outside" in bench.check_job([("vcl", 0, 1, 1, float("nan"))],
                                        Method.VCL, 0, 1, None)
    golden = {("vcl", 0, 1, 1): "vcl,0,1,1,0.400000\n"}
    assert "golden" in bench.check_job(rows, Method.VCL, 0, 1, golden)
    assert "expected" in bench.check_job(rows, Method.VCL, 0, 2, None)


def test_fisher_draws_no_more_rows_than_a_task_holds(tmp_path):
    # on real MNIST fisher_samples (5000) is below every task's size, so the
    # fake workloads must not take the draw-with-replacement branch instead
    for name, (n_train, _) in bench.FAKE_ROWS.items():
        config = bench.workload_config(name, 0, str(tmp_path))
        task_rows = n_train if config.benchmark == "permuted_mnist" else n_train // 5
        if any(m.needs_fisher for m in config.methods):
            assert config.fisher_samples <= task_rows, name


def test_golden_jobs_cover_the_committed_csv_and_match_it():
    jobs = [bench.golden_job(seed) for seed in range(15)]
    pairs = {(job.methods[0], job.seeds[0]) for job in jobs}
    assert len(pairs) == 15
    assert sum(len(bench.golden_rows(job)) for job in jobs) == 15 * 15
    plain = next(job for job in jobs if job.methods[0] is Method.PLAIN)
    assert bench.check_golden(plain) is None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "split_mnist_fake",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
