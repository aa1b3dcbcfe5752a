import ast
import glob
import mmap
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import idx_keys, run_pinned, traced_peak, write_idx_pair

import evclplus
from evclplus import continual
from evclplus import harness as hz
from evclplus.continual import Method, TrainConfig, run_task_sequence
from evclplus.data import Dataset, Rows, Task, load_idx
from evclplus.numerics import SeededRng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL_SYNTH = """
benchmark = synthetic
methods = evclplus
seeds = 0
n_tasks = 2
epochs = 2
batch_size = 16
fisher_samples = 100
coreset_size = 20
"""


class TestParseConfig:
    def test_minimal_config_applies_defaults(self, tmp_path):
        path = write_config(tmp_path, "benchmark = synthetic\nmethods = vcl\n")
        config = hz.parse_config(path)
        assert config.epochs == 100
        assert config.batch_size == 256
        assert config.lam == 100.0
        assert config.k == 5.0
        assert config.fisher_samples == 5000
        assert config.coreset_size == 200
        assert config.learning_rate == 0.001
        assert config.seeds == [0, 1, 2]
        assert config.n_tasks == 5

    def test_lists_and_comments(self, tmp_path):
        path = write_config(tmp_path, """
# experiment
benchmark = synthetic   # trailing comment
methods = evclplus, vcl, ewc
seeds = 3, 5
""")
        config = hz.parse_config(path)
        assert config.methods == [Method.EVCL_PLUS, Method.VCL, Method.EWC]
        assert config.seeds == [3, 5]

    def test_accepts_exactly_the_documented_keys(self, tmp_path):
        values = {"benchmark": "split_fashion", "methods": "ewc", "seeds": "4",
                  "n_tasks": "2", "epochs": "3", "batch_size": "7",
                  "learning_rate": "0.5", "lambda": "2.5", "k": "1.5",
                  "fisher_samples": "11", "coreset_size": "13", "eval_samples": "17",
                  "mnist_images": "a", "mnist_labels": "b", "mnist_test_images": "c",
                  "mnist_test_labels": "d", "fashion_images": "e",
                  "fashion_labels": "f", "fashion_test_images": "g",
                  "fashion_test_labels": "h", "out_dir": "o"}
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        config = hz.parse_config(write_config(tmp_path, text))
        assert config == hz.ExperimentConfig(
            benchmark="split_fashion", methods=[Method.EWC], seeds=[4], n_tasks=2,
            epochs=3, batch_size=7, learning_rate=0.5, lam=2.5, k=1.5,
            fisher_samples=11, coreset_size=13, eval_samples=17, mnist_images="a",
            mnist_labels="b", mnist_test_images="c", mnist_test_labels="d",
            fashion_images="e", fashion_labels="f", fashion_test_images="g",
            fashion_test_labels="h", out_dir="o")
        for field_name in ("lam", "hp", "seed"):
            with pytest.raises(hz.ConfigError, match=f"unknown key '{field_name}'"):
                hz.parse_config(write_config(tmp_path, f"{text}{field_name} = 1\n",
                                             name="extra.cfg"))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a BOM used to make line 1 "unknown key 'benchmark'"
        text = "benchmark = synthetic\nmethods = vcl, ewc\nseeds = 4\n"
        (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert (hz.parse_config(str(tmp_path / "bom.cfg"))
                == hz.parse_config(write_config(tmp_path, text)))


def never_trains(*args, **kwargs):
    raise AssertionError("a job started training")


# a split_mnist config whose IDX files do not exist: a config rule is reported
# before any file is read
IDX_NOPE = SMALL_SYNTH.replace("synthetic", "split_mnist") + (
    "mnist_images = /nope\nmnist_labels = /nope\n"
    "mnist_test_images = /nope\nmnist_test_labels = /nope\n")
SYNTH = "benchmark = synthetic\n"
CORESET_RUN = SYNTH + "methods = vcl_random_coreset\nseeds = 0\nn_tasks = 2\nepochs = 1\n"
SYNTH_VCL = SYNTH + "methods = vcl\n"


# id: (config text, its exact error); None is a config path that is a directory
BAD_CONFIGS = {
    "malformed_value": (SYNTH_VCL + "lambda = abc\n",
                        "line 3: expected a number, got 'abc'"),
    "duplicate_key": (SYNTH_VCL + "epochs = 2\nepochs = 3\n",
                      "line 4: duplicate key 'epochs'"),
    "unknown_key": (SYNTH_VCL + "wat = 1\n", "line 3: unknown key 'wat'"),
    "missing_benchmark": ("methods = vcl\n", "missing required key 'benchmark'"),
    "missing_methods": (SYNTH, "missing required key 'methods'"),
    "unknown_method": (SYNTH + "methods = vcl, sgdmagic\n",
                       "methods: 'sgdmagic' is not a valid Method (known: evclplus, evcl, "
                       "vcl, vcl_random_coreset, vcl_kcenter_coreset, ewc, coreset_only, "
                       "plain)"),
    # a repeated (method, seed) job would write every results.csv row twice
    "repeated_method": (SYNTH + "methods = vcl, evclplus, vcl\n",
                        "methods: 'vcl' is repeated"),
    "repeated_seed": (SYNTH_VCL + "seeds = 0, 1, 0\n", "seeds: '0' is repeated"),
    "blank_methods": (SYNTH + "methods = \n", "line 2: methods list is empty"),
    "comma_methods": (SYNTH + "methods = ,\n", "line 2: methods list is empty"),
    "line_without_equals": (SYNTH + "methods vcl\n",
                            "line 2: expected 'key = value', got 'methods vcl'"),
    # '' passed every check made before training and failed the write after it
    "empty_out_dir": (SYNTH_VCL + "out_dir = \n", "out_dir must be set"),
    "config_is_a_directory": (None, "[Errno 21] Is a directory: '{path}'"),
    "config_not_utf8": (b"\xff\xfebenchmark = synthetic\n",
                        "{path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                        "position 0: invalid start byte)"),
}


def bad_configs(table):
    return pytest.mark.parametrize("text, message", table.values(), ids=list(table))


@pytest.fixture
def exits_1(tmp_path, capsys, monkeypatch):
    """Checks that a config file of text (None: a directory) is rejected:
    parse_config raises the message (a ConfigError, or the OSError of a
    directory), and `evclplus run` prints it and exits 1 before any job
    trains or out_dir is made."""
    def check(text, message):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)
        path = tmp_path / "exp.cfg"
        if text is None:
            path.mkdir()
        else:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        message = message.format(path=path)
        error = IsADirectoryError if text is None else hz.ConfigError
        with pytest.raises(error) as caught:
            hz.parse_config(str(path))
        assert str(caught.value) == message
        out = tmp_path / "out"
        assert hz.main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
    return check


@bad_configs(BAD_CONFIGS)
def test_bad_config_exit_1_before_any_job(exits_1, text, message):
    exits_1(text, message)


COMMITTED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


@pytest.mark.parametrize("path", COMMITTED_CONFIGS, ids=os.path.basename)
def test_committed_config_parses_with_its_own_out_dir(path):
    # a renamed key would otherwise break only the hours-long full runs
    config = hz.parse_config(path)
    assert isinstance(config, hz.ExperimentConfig)
    others = [os.path.normpath(hz.parse_config(other).out_dir)
              for other in COMMITTED_CONFIGS if other != path]
    assert os.path.normpath(config.out_dir) not in others


RESULTS_HEADER = "method,seed,after_task,eval_task,accuracy\n"


@pytest.mark.parametrize("text, code, message", [
    ("method,seed,task,accuracy\nvcl,0,1,1,0.9\n", 2,
     r"^plot failed: .*results.csv: unexpected header 'method,seed,task,accuracy'$"),
    (RESULTS_HEADER + "\nvcl,0,1,1,0.9\n\n", 0, r"^$"),
    (RESULTS_HEADER + "vcl,0,1,1,0.9\n\nvcl,0,1,1\n", 2,
     r"^plot failed: .*results.csv line 4: malformed row 'vcl,0,1,1'"),
], ids=["results_header", "blank_lines_skipped", "blank_lines_counted"])
def test_input_files_checked_through_the_cli(tmp_path, capsys, text, code, message):
    path = tmp_path / "results.csv"
    path.write_text(text)
    assert hz.main(["plot", "--results", str(path),
                    "--out", str(tmp_path / "replot.svg")]) == code
    assert re.search(message, capsys.readouterr().err)


NAN = float("nan")


MNIST_KEYS = dict(mnist_images="a", mnist_labels="b", mnist_test_images="c",
                  mnist_test_labels="d")
FASHION_KEYS = {key.replace("mnist", "fashion"): value
                for key, value in MNIST_KEYS.items()}


@pytest.mark.parametrize("kwargs, message", [
    (dict(benchmark="synthetic", methods=["vcl"], seeds=[0, 1, 0]),
     r"^seeds: '0' is repeated$"),
    (dict(benchmark="synthetic", methods=["vcl", Method.EVCL_PLUS, Method.VCL]),
     r"^methods: 'vcl' is repeated$"),
    (dict(benchmark="nope"), r"^benchmark: 'nope' is not a valid benchmark \(known: "
     r"permuted_mnist, split_mnist, split_fashion, synthetic\)$"),
    (dict(benchmark="synthetic", methods=["vcl", "sgdmagic"]),
     r"^methods: 'sgdmagic' is not a valid Method \(known: evclplus, evcl, vcl, "),
    (dict(benchmark="split_mnist", n_tasks=6, **MNIST_KEYS),
     r"^n_tasks must be <= 5 for split_mnist, got 6$"),
    (dict(benchmark="split_fashion", n_tasks=6, **FASHION_KEYS),
     r"^n_tasks must be <= 5 for split_fashion, got 6$"),
    (dict(benchmark="permuted_mnist", **dict(MNIST_KEYS, mnist_test_labels="")),
     r"^mnist_test_labels must be set for benchmark permuted_mnist$"),
    (dict(benchmark="split_fashion", **MNIST_KEYS),
     r"^fashion_images must be set for benchmark split_fashion$"),
    (dict(benchmark="synthetic", methods=[]), r"^methods list is empty$"),
    (dict(benchmark="synthetic", methods=["vcl"], seeds=[]), r"^seeds list is empty$"),
    (dict(benchmark="synthetic", methods=["vcl"], seeds=[0, 0.5]),
     r"^seeds must be integers, got 0.5$"),
    (dict(benchmark="synthetic", methods=["vcl"], seeds=[True]),
     r"^seeds must be integers, got True$"),
    *[(dict(benchmark="synthetic", methods=["vcl"], **{key: bad}),
       rf"^{key} must be an integer, got {bad}$")
      for key, bad in (("epochs", 2.5), ("batch_size", 4.5), ("eval_samples", 2.5),
                       ("fisher_samples", 10.5), ("n_tasks", 2.5),
                       ("coreset_size", 20.0), ("epochs", True), ("n_tasks", True))],
], ids=["repeated_seed", "repeated_method", "unknown_benchmark", "unknown_method",
        "split_mnist_n_tasks", "split_fashion_n_tasks", "missing_idx_key",
        "idx_keys_of_the_other_dataset", "empty_methods", "empty_seeds", "float_seed",
        "bool_seed", "float_epochs", "float_batch_size", "float_eval_samples",
        "float_fisher_samples", "float_n_tasks", "float_coreset_size", "bool_epochs",
        "bool_n_tasks"])
def test_library_config_checks_every_config_only_rule(kwargs, message):
    with pytest.raises(ValueError, match=message):
        hz.ExperimentConfig(**kwargs)
    if set(kwargs) <= {f.name for f in fields(TrainConfig)}:  # TrainConfig's own rule
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)


@pytest.mark.parametrize("cls, field_name, bad, key", [
    (TrainConfig, "epochs", 0, "epochs"), (TrainConfig, "batch_size", 0, "batch_size"),
    (TrainConfig, "fisher_samples", 0, "fisher_samples"),
    (TrainConfig, "eval_samples", 0, "eval_samples"),
    (TrainConfig, "coreset_size", -5, "coreset_size"),
    (TrainConfig, "lam", -1.0, "lambda"), (TrainConfig, "lam", NAN, "lambda"),
    (TrainConfig, "k", -1.0, "k"), (TrainConfig, "k", NAN, "k"),
    (TrainConfig, "learning_rate", 0.0, "learning_rate"),
    (TrainConfig, "learning_rate", NAN, "learning_rate"),
    (hz.ExperimentConfig, "n_tasks", 0, "n_tasks")])
def test_library_config_out_of_range_names_the_key(cls, field_name, bad, key):
    for config in (cls, hz.ExperimentConfig):  # which checks TrainConfig's rules too
        with pytest.raises(ValueError, match=rf"^{key} must be >=? \d, got {bad}$"):
            config(**{field_name: bad})


def test_library_config_negative_seed_names_the_key():
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -3$"):
        hz.ExperimentConfig(seeds=[1, -3])


def test_library_config_turns_method_names_into_methods():
    config = hz.ExperimentConfig(benchmark="synthetic", methods=["vcl", "ewc"])
    assert config == hz.ExperimentConfig(benchmark="synthetic",
                                         methods=[Method.VCL, Method.EWC])
    assert config.methods[0] is Method.VCL and config.methods[1] is Method.EWC
    # replace() runs the checks again, on Method values
    assert replace(config, methods=[Method.EVCL_PLUS]).methods == [Method.EVCL_PLUS]
    # only split benchmarks are limited to the SPLIT_PAIRS
    assert hz.ExperimentConfig(benchmark="permuted_mnist", methods=["vcl"], n_tasks=6,
                               **MNIST_KEYS).n_tasks == 6


@pytest.mark.parametrize("name, heads", [("synthetic", [1, 2, 3]),
                                         ("split_mnist", [1, 2, 3]),
                                         ("permuted_mnist", [1, 1, 1])])
def test_task_heads_route_the_net_heads(digits_idx, name, heads):
    """Each task's head alone decides sharing: every permuted task trains
    head 0, every split or synthetic task adds its own."""
    config = hz.ExperimentConfig(benchmark=name, methods=["plain"], n_tasks=3,
                                 epochs=1, batch_size=64, **idx_keys(digits_idx))
    stream, spec = hz.build_stream(config, 0)
    seen = []
    run_task_sequence(Method.PLAIN, config, stream, spec, 0,
                      on_task_end=lambda t, net, anchors, snap: seen.append(net.n_heads))
    assert seen == heads


def test_permuted_stream_memory_is_a_few_copies_of_the_pixels(tmp_path):
    """3 permuted tasks over uint8 pixels hold the file bytes once: the later
    tasks store a permutation, and gather their pixels only when read."""
    rng = SeededRng(4)
    train, test = (Dataset(rng.integers(0, 256, size=(n, 784)) / 255.0,
                           rng.integers(0, 10, size=n), 10) for n in (3000, 1000))
    image_bytes = 4000 * 784
    n_tasks = 3
    config = hz.ExperimentConfig(benchmark="permuted_mnist", methods=["vcl"],
                                 n_tasks=n_tasks,
                                 **idx_keys(write_idx_pair(tmp_path, train, test)))
    (stream, _), peak = traced_peak(lambda: hz.build_stream(config, 0))
    assert len(stream.tasks) == n_tasks
    # the margin covers the int64 labels (32 kB), the permutations (6 kB
    # each) and small objects; one gathered task would add image_bytes
    assert peak < image_bytes + image_bytes // 16, (peak, image_bytes)


def gather_fails(task, split):
    raise AssertionError("split gathered")


def is_mapped(pixels):
    """Whether pixels are a view of a file mapping (what load_idx returns)."""
    while isinstance(pixels, np.ndarray):
        pixels = pixels.base
    return isinstance(pixels, memoryview) and isinstance(pixels.obj, mmap.mmap)


@pytest.mark.parametrize("name", ["split_mnist", "split_fashion", "permuted_mnist"])
def test_idx_stream_build_gathers_no_pixel_row(tmp_path, monkeypatch, name):
    """build_stream maps the pixels and stores row indices or permutations:
    no split is read, and no pixel row is copied."""
    rng = SeededRng(4)
    train, test = (Dataset(rng.integers(0, 256, size=(n, 784)).astype(np.uint8),
                           np.arange(n) % 10, 10) for n in (3000, 1000))
    keys = idx_keys(write_idx_pair(tmp_path, train, test),
                    "fashion" if name == "split_fashion" else "mnist")
    config = hz.ExperimentConfig(benchmark=name, methods=["vcl"], n_tasks=3, **keys)
    monkeypatch.setattr(Task, "_read", gather_fails)
    (stream, _), peak = traced_peak(lambda: hz.build_stream(config, 0))
    # int64 labels, row indices, permutations and their temporaries peak at
    # about 80 kB; a copy of the smallest split, 200 test rows, adds 157 kB
    assert peak < 120_000, peak
    for task in stream.tasks:
        for split in task.stored:
            assert is_mapped(split.source if isinstance(split, Rows) else split.inputs)


class TestCoresetSizeCheckedBeforeTraining:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)

    OVERSIZED = (SYNTH + "methods = evclplus, vcl_random_coreset\nseeds = 0, 1\n"
                 "n_tasks = 2\ncoreset_size = 600\n")

    def test_oversized_coreset_exit_1_before_any_job(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.OVERSIZED + f"out_dir = {out}\n")
        assert hz.main(["run", "--config", cfg]) == 1
        assert ("coreset_size 600 exceeds the smallest training split (500 rows) "
                "for method vcl_random_coreset") in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_coreset_pooled_exit_1_before_any_job(self, tmp_path, capsys,
                                                            monkeypatch):
        # forked workers inherit the patch; a job that reaches training
        # leaves a file, since its error would surface after job 0's
        trained = tmp_path / "trained"
        monkeypatch.setattr(hz, "run_task_sequence",
                            lambda *args: trained.mkdir(exist_ok=True))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.OVERSIZED + f"out_dir = {out}\n")
        assert hz.main(["run", "--config", cfg, "--workers", "2"]) == 1
        assert ("coreset_size 600 exceeds the smallest training split (500 rows) "
                "for method vcl_random_coreset") in capsys.readouterr().err
        assert not out.exists() and not trained.exists()

    def test_permuted_sizes_read_without_a_gather(self, digits_idx, monkeypatch):
        monkeypatch.setattr(Task, "_read", gather_fails)
        config = hz.ExperimentConfig(
            benchmark="permuted_mnist", n_tasks=3, methods=[Method.VCL_KCENTER_CORESET],
            seeds=[0], coreset_size=1201, **idx_keys(digits_idx))
        with pytest.raises(hz.ConfigError, match=r"coreset_size 1201 exceeds the "
                           r"smallest training split \(1200 rows\) for method "
                           r"vcl_kcenter_coreset"):
            hz.run_experiment(config)

    def test_split_sizes_read_without_a_gather(self, digits_idx, monkeypatch):
        monkeypatch.setattr(Task, "_read", gather_fails)
        train_labels = load_idx(*digits_idx["train"]).labels
        smallest = min(int(np.isin(train_labels, pair).sum())
                       for pair in hz.SPLIT_PAIRS[:3])
        config = hz.ExperimentConfig(
            benchmark="split_mnist", n_tasks=3, methods=[Method.VCL_RANDOM_CORESET],
            seeds=[0], coreset_size=smallest + 1, **idx_keys(digits_idx))
        with pytest.raises(hz.ConfigError, match=rf"coreset_size {smallest + 1} "
                           rf"exceeds the smallest training split \({smallest} rows\) "
                           r"for method vcl_random_coreset"):
            hz.run_experiment(config)


@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    """run_experiment's table for SMALL_SYNTH, read from a config file."""
    return hz.run_experiment(hz.parse_config(write_config(tmp_path_factory.mktemp("small"),
                                                          SMALL_SYNTH)))


class TestRunExperiment:
    def test_triangular_row_count(self, small_table):
        assert len(small_table.rows) == 3  # (1,1), (2,1), (2,2)
        assert [(r[2], r[3]) for r in small_table.rows] == [(1, 1), (2, 1), (2, 2)]

    def test_aggregates_are_seed_means(self, tmp_path):
        config = hz.parse_config(write_config(
            tmp_path, SMALL_SYNTH.replace("seeds = 0", "seeds = 0, 1")))
        table = hz.run_experiment(config)
        for method, s, mean, std, _ in table.aggregates:
            per_seed = []
            for seed in (0, 1):
                accs = [r[4] for r in table.rows
                        if r[0] == method and r[1] == seed and r[2] == s]
                per_seed.append(np.mean(accs))
            assert abs(mean - np.mean(per_seed)) < 1e-12
            assert abs(std - np.std(per_seed, ddof=1)) < 1e-12

    def test_forgetting_zero_after_first_task(self, small_table):
        assert all(a[4] == 0.0 for a in small_table.aggregates if a[1] == 1)

    def test_one_stream_build_per_job_with_a_coreset_method(self, tmp_path,
                                                            monkeypatch):
        seeds, build = [], hz.build_stream
        monkeypatch.setattr(hz, "build_stream",
                            lambda config, seed: seeds.append(seed) or build(config, seed))
        config = hz.parse_config(write_config(tmp_path, SMALL_SYNTH.replace(
            "methods = evclplus", "methods = vcl_random_coreset, evclplus").replace(
            "seeds = 0", "seeds = 0, 1")))
        assert len(hz.run_experiment(config).rows) == 12
        assert sorted(seeds) == [0, 0, 1, 1]

    def test_failure_names_method_and_seed(self, tmp_path):
        config = hz.parse_config(write_config(tmp_path, IDX_NOPE))
        with pytest.raises(RuntimeError, match=r"method=evclplus, seed=0"):
            hz.run_experiment(config)


class TestCsv:
    def test_raw_csv_format_and_determinism(self, tmp_path):
        config = hz.parse_config(write_config(tmp_path, SMALL_SYNTH))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hz.write_results_csv(hz.run_experiment(config), out1)
        hz.write_results_csv(hz.run_experiment(config), out2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "method,seed,after_task,eval_task,accuracy"
        assert all(len(line.split(",")[4].split(".")[1]) == 6
                   for line in lines[1:])

    def test_empty_table_header_only(self, tmp_path):
        table = hz.ResultsTable(rows=[], aggregates=[])
        path = tmp_path / "empty.csv"
        hz.write_results_csv(table, path)
        assert path.read_text() == "method,seed,after_task,eval_task,accuracy\n"

    def test_accuracy_formatting(self, tmp_path):
        table = hz.ResultsTable(rows=[("vcl", 0, 1, 1, 0.9466666666)],
                                aggregates=[])
        path = tmp_path / "fmt.csv"
        hz.write_results_csv(table, path)
        assert "0.946667" in path.read_text()

    def test_round_trip_and_aggregate_recompute(self, tmp_path, small_table):
        hz.write_results_csv(small_table, tmp_path / "r.csv")
        recomputed = hz.aggregate_rows(hz.read_results_csv(tmp_path / "r.csv"))
        for a, b in zip(sorted(small_table.aggregates), sorted(recomputed)):
            assert a[0] == b[0] and a[1] == b[1]
            assert abs(a[2] - b[2]) < 1e-6  # csv rounds to 6 decimals

    def test_aggregate_csv_header(self, tmp_path, small_table):
        hz.write_aggregate_csv(small_table, tmp_path / "agg.csv")
        header = (tmp_path / "agg.csv").read_text().splitlines()[0]
        assert header == ("method,after_task,avg_accuracy_mean,"
                          "avg_accuracy_std,forgetting_mean")


class TestSvg:
    @pytest.fixture
    def svg(self, tmp_path):
        """The plot of two methods over two tasks, one point at 1.2."""
        aggregates = [("evclplus", 1, 0.9, 0.0, 0.0), ("evclplus", 2, 0.8, 0.0, 0.1),
                      ("vcl", 1, 0.85, 0.0, 0.0), ("vcl", 2, 1.2, 0.0, 0.2)]
        hz.render_accuracy_svg(hz.ResultsTable(rows=[], aggregates=aggregates),
                               tmp_path / "plot.svg")
        return tmp_path / "plot.svg"

    def test_well_formed_svg(self, svg):
        assert ET.parse(svg).getroot().tag.endswith("svg")

    def test_one_polyline_per_method(self, svg):
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert "evclplus" in text and "vcl" in text

    def test_y_values_clamped_to_unit_range(self, svg):
        root = ET.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        top, bottom = 20.0, 390.0
        for poly in root.iter(f"{ns}polyline"):
            ys = [float(p.split(",")[1]) for p in poly.get("points").split()]
            assert all(top - 1e-6 <= y <= bottom + 1e-6 for y in ys)

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            hz.render_accuracy_svg(hz.ResultsTable(rows=[], aggregates=[]),
                                   tmp_path / "x.svg")


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {tmp_path}/out\n")
        assert hz.main(["run", "--config", cfg]) == 0
        for name in ("results.csv", "aggregate.csv", "accuracy.svg"):
            assert os.path.exists(tmp_path / "out" / name)

    def test_permuted_run_without_train_rows_exit_2_naming_the_split(self, tmp_path,
                                                                     capsys):
        # a 4x4 IDX pair with 0 train and 50 test images
        rng = SeededRng(3)
        keys = idx_keys(write_idx_pair(tmp_path, *(
            Dataset(rng.integers(0, 256, size=(n, 16)).astype(np.uint8),
                    rng.integers(0, 10, size=n), 10) for n in (0, 50))))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (
            SMALL_SYNTH.replace("synthetic", "permuted_mnist").replace("evclplus", "vcl")
            + "".join(f"{key} = {path}\n" for key, path in keys.items())
            + f"out_dir = {out}\n"))
        assert hz.main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("run failed: run (method=vcl, seed=0) "
                                           "failed: the base train split has no rows\n")
        assert not out.exists()

    def test_label_no_head_outputs_exit_2_before_any_job_trains(self, tmp_path, capsys,
                                                              monkeypatch):
        # a 4x4 IDX pair whose test labels reach 12, for heads of 10 outputs
        monkeypatch.setattr(continual, "init_network", never_trains)
        rng = SeededRng(3)
        keys = idx_keys(write_idx_pair(tmp_path, *(
            Dataset(rng.integers(0, 256, size=(n, 16)).astype(np.uint8),
                    np.arange(n) % top, top) for n, top in ((40, 10), (20, 13)))))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (
            SMALL_SYNTH.replace("synthetic", "permuted_mnist").replace("evclplus", "ewc")
            + "".join(f"{key} = {path}\n" for key, path in keys.items())
            + f"out_dir = {out}\n"))
        assert hz.main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("run failed: run (method=ewc, seed=0) failed: "
                                           "task 1 test split has label 12, but a head "
                                           "has 10 outputs\n")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["split_mnist", "permuted_mnist"])
    def test_test_split_of_other_width_exit_2_naming_both_widths(self, tmp_path, capsys,
                                                                 name):
        # 28x28 train images, 20x20 test images
        train, _ = fake_mnist(n_train=40, n_test=20)
        narrow = Dataset(np.zeros((20, 400), np.uint8), np.arange(20) % 10, 10)
        keys = idx_keys(write_idx_pair(tmp_path, train, narrow))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (
            SMALL_SYNTH.replace("synthetic", name)
            + "".join(f"{key} = {path}\n" for key, path in keys.items())
            + f"out_dir = {out}\n"))
        assert hz.main(["run", "--config", cfg]) == 2
        assert ("task 1 test split input dim 400 differs from task 1 train split (784)"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["out_dir", "out_flag"])
    def test_out_dir_that_is_a_file_exit_1_before_training(self, tmp_path, capsys,
                                                           monkeypatch, flag):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        if flag:
            argv = ["--out", str(taken)]
            cfg = write_config(tmp_path, SMALL_SYNTH)
        else:
            argv = []
            cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {taken}\n")
        assert hz.main(["run", "--config", cfg] + argv) == 1
        err = capsys.readouterr().err
        assert f"config error: out_dir '{taken}' exists and is not a directory" in err
        assert taken.read_text() == "keep me\n"

    def test_empty_out_flag_exit_1_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {out}\n")
        assert hz.main(["run", "--config", cfg, "--out", ""]) == 1
        assert capsys.readouterr().err == "config error: out_dir must be set\n"
        assert not out.exists()

    def test_out_dir_below_a_file_exit_1_before_training(self, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        below = taken / "sub" / "deeper"
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {below}\n")
        assert hz.main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert (f"config error: out_dir '{below}' is below '{taken}', which exists "
                f"and is not a directory") in err
        assert taken.read_text() == "keep me\n"

    @bad_configs({f"{key}-{value}": (CORESET_RUN + f"{key} = {value}\n",
                                     f"{key} must be {rule}")
                  for key, value, rule in (("eval_samples", "0", ">= 1, got 0"),
                                           ("fisher_samples", "0", ">= 1, got 0"),
                                           ("coreset_size", "-5", ">= 0, got -5"),
                                           ("lambda", "-1", ">= 0, got -1.0"),
                                           ("k", "-1", ">= 0, got -1.0"))})
    def test_out_of_range_value_exit_1_naming_the_key(self, exits_1, text, message):
        exits_1(text, message)

    @bad_configs({f"{key}-{value}": (SYNTH + f"methods = evclplus\n{key} = {value}\n",
                                     f"{key} must be {rule}, got {value}")
                  for key, value, rule in (
                      ("learning_rate", "inf", "finite"),
                      ("learning_rate", "-inf", "> 0"), ("lambda", "inf", "finite"),
                      ("lambda", "-inf", ">= 0"), ("k", "inf", "finite"),
                      ("k", "-inf", ">= 0"))})
    def test_non_finite_value_exit_1_before_training(self, exits_1, text, message):
        exits_1(text, message)

    def test_negative_seed_exit_1_before_training(self, exits_1):
        exits_1(SMALL_SYNTH.replace("seeds = 0", "seeds = 0, -1"),
                "seeds must be >= 0, got -1")

    @bad_configs({
        "split_n_tasks": (IDX_NOPE.replace("n_tasks = 2", "n_tasks = 6"),
                          "n_tasks must be <= 5 for split_mnist, got 6"),
        "unknown_benchmark": (IDX_NOPE.replace("split_mnist", "nope"),
                              "benchmark: 'nope' is not a valid benchmark (known: "
                              "permuted_mnist, split_mnist, split_fashion, synthetic)"),
        "missing_idx_key": (IDX_NOPE.replace("mnist_test_labels = /nope\n", ""),
                            "mnist_test_labels must be set for benchmark split_mnist")})
    def test_config_only_rule_exit_1_before_the_files_are_read(
            self, exits_1, text, message):
        exits_1(text, message)

    @bad_configs({method: (SYNTH + f"methods = vcl, {method}\nseeds = 0\nn_tasks = 2\n"
                           "epochs = 1\ncoreset_size = 0\n",
                           f"coreset_size must be >= 1 for method {method}, got 0")
                  for method in [m.value for m in Method if m.uses_coreset]})
    def test_coreset_method_without_coreset_exit_1(self, exits_1, text, message):
        exits_1(text, message)

    def test_write_error_exit_2_naming_the_path(self, tmp_path, capsys, monkeypatch):
        def full(table, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(hz, "write_aggregate_csv", full)
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {tmp_path}/out\n")
        assert hz.main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        path = tmp_path / "out" / "aggregate.csv"
        assert err == (f"run failed: cannot write '{path}': "
                       f"[Errno 28] No space left on device\n")
        assert os.path.exists(tmp_path / "out" / "results.csv")

    def test_run_missing_data_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, IDX_NOPE)
        assert hz.main(["run", "--config", cfg]) == 2
        assert "run failed" in capsys.readouterr().err

    def test_plot_from_results(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {tmp_path}/out\n")
        hz.main(["run", "--config", cfg])
        svg = tmp_path / "replot.svg"
        code = hz.main(["plot", "--results", str(tmp_path / "out" / "results.csv"),
                        "--out", str(svg)])
        assert code == 0
        assert ET.parse(svg).getroot().tag.endswith("svg")

    def test_plot_escapes_method_names(self, tmp_path):
        csv = tmp_path / "results.csv"
        csv.write_text("method,seed,after_task,eval_task,accuracy\n"
                       "a<b&c,0,1,1,0.9\na<b&c,0,2,1,0.8\na<b&c,0,2,2,0.7\n")
        svg = tmp_path / "replot.svg"
        assert hz.main(["plot", "--results", str(csv), "--out", str(svg)]) == 0
        texts = [t.text for t in ET.parse(svg).getroot().iter()
                 if t.tag.endswith("text")]
        assert "a<b&c" in texts

    def test_replot_of_committed_results_matches_committed_svg(self, tmp_path):
        golden = os.path.join(ROOT, "results", "synthetic_quick")
        svg = tmp_path / "accuracy.svg"
        assert hz.main(["plot", "--results", os.path.join(golden, "results.csv"),
                        "--out", str(svg)]) == 0
        with open(os.path.join(golden, "accuracy.svg"), "rb") as f:
            assert svg.read_bytes() == f.read()

    @pytest.mark.parametrize("rows, message", [
        ("vcl,0,1,1,0.9\nvcl,0,2,2,0.8\n",
         r"run \(method=vcl, seed=0\) has no accuracy after task 2 on task 1"),
        ("vcl,0,1,1,0.9\nvcl,0,1,2,0.8\n",
         r"run \(method=vcl, seed=0\) has an unexpected accuracy after task 1 on "
         r"task 2"),
        ("vcl,0,1,1,0.9\nvcl,0,2,1,0.8\nvcl,0,2,2,0.7\nvcl,1,1,1,0.9\n",
         r"task counts differ: run \(method=vcl, seed=0\) has 2, run "
         r"\(method=vcl, seed=1\) has 1"),
        ("vcl,0,1,1,0.9\nvcl,0,2,1,nan\nvcl,0,2,2,0.7\n",
         r"results.csv line 3: accuracy nan is not in \[0, 1\]"),
        ("vcl,0,1,1,1.5\n", r"results.csv line 2: accuracy 1.5 is not in \[0, 1\]"),
        ("vcl,0,1,1,0.9\nvcl,0,2,1,0.8\nvcl,0,2,2,0.7\nvcl,0,1,1,0.5\n",
         r"results.csv line 5: repeats the \(method, seed, after_task, eval_task\) "
         r"of line 2"),
        ("vcl,0,1,1\n", r"results.csv line 2: malformed row 'vcl,0,1,1'"),
    ], ids=["missing_cell", "extra_cell", "task_counts", "nan", "above_one",
            "repeated_row", "malformed"])
    def test_plot_bad_results_exit_2_naming_line_or_run(self, tmp_path, capsys, rows,
                                                        message):
        csv = tmp_path / "results.csv"
        csv.write_text("method,seed,after_task,eval_task,accuracy\n" + rows)
        svg = tmp_path / "replot.svg"
        assert hz.main(["plot", "--results", str(csv), "--out", str(svg)]) == 2
        assert re.search(r"^plot failed: .*" + message, capsys.readouterr().err)
        assert not svg.exists()

    def test_out_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_SYNTH)
        assert hz.main(["run", "--config", cfg, "--out",
                        str(tmp_path / "other")]) == 0
        assert os.path.exists(tmp_path / "other" / "results.csv")

    def test_selftest_exit_code(self, capsys):
        assert hz.main(["selftest"]) == 0
        assert "[PASS]" in capsys.readouterr().out


def fail_or_sleep(method, config, stream, spec, seed):
    if seed == 0:
        raise ValueError("seed 0 fails")
    time.sleep(6)


@pytest.fixture
def pools(monkeypatch):
    """Each pool run_experiment starts: its size and its jobs' pickled sizes."""
    pools = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append({"size": max_workers, "job_bytes": []})
            super().__init__(max_workers, **kwargs)

        def submit(self, fn, job):
            pools[-1]["job_bytes"].append(len(pickle.dumps(job)))
            return super().submit(fn, job)

    monkeypatch.setattr(hz, "ProcessPoolExecutor", Recording)
    return pools


class TestWorkerPool:
    def test_worker_pool_matches_sequential(self, tmp_path):
        config = hz.parse_config(write_config(
            tmp_path, SMALL_SYNTH.replace("methods = evclplus",
                                          "methods = vcl_random_coreset, evclplus, vcl")))
        sequential = hz.run_experiment(config, workers=1)
        pooled = hz.run_experiment(config, workers=2)
        assert sequential.rows == pooled.rows
        assert sequential.aggregates == pooled.aggregates
        hz.write_results_csv(sequential, tmp_path / "serial.csv")
        hz.write_results_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "serial.csv").read_bytes() == \
            (tmp_path / "pooled.csv").read_bytes()

    def test_pooled_jobs_are_sent_no_stream(self, tmp_path, pools):
        # each job builds its own stream: its pickled arguments are the
        # config, the method and the seed (a synthetic stream is ~500 kB)
        config = hz.parse_config(write_config(tmp_path, SMALL_SYNTH.replace(
            "methods = evclplus", "methods = vcl_random_coreset, evclplus")))
        assert len(hz.run_experiment(config, workers=2).rows) == 6
        assert [pool["size"] for pool in pools] == [2]
        sizes = pools[0]["job_bytes"]
        assert len(sizes) == 2 and max(sizes) < 4096, sizes

    @pytest.mark.parametrize("seeds, workers, pool_sizes", [
        ("0, 1", 6, [2]), ("0, 1", 2, [2]), ("0, 1", 1, []), ("0", 4, [])])
    def test_pool_never_outnumbers_the_jobs(self, tmp_path, pools, seeds, workers,
                                            pool_sizes):
        config = hz.parse_config(write_config(
            tmp_path, SMALL_SYNTH.replace("seeds = 0", f"seeds = {seeds}")))
        rows = hz.run_experiment(config, workers=workers).rows
        assert len(rows) == 3 * len(config.seeds)
        assert [pool["size"] for pool in pools] == pool_sizes

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_1_exit_1_before_any_job(self, tmp_path, capsys,
                                                   monkeypatch, pools, workers):
        monkeypatch.setattr(hz, "run_task_sequence", never_trains)
        cfg = write_config(tmp_path, SMALL_SYNTH + f"out_dir = {tmp_path}/out\n")
        assert hz.main(["run", "--config", cfg, "--workers", workers]) == 1
        assert (f"config error: workers must be >= 1, got {workers}"
                in capsys.readouterr().err)
        assert pools == [] and not os.path.exists(tmp_path / "out")

    def test_first_failure_ends_the_run_at_once(self, tmp_path, monkeypatch):
        # forked workers inherit the patch: seed 0 fails at once while
        # seed 1 would train for 6 s
        monkeypatch.setattr(hz, "run_task_sequence", fail_or_sleep)
        config = hz.parse_config(write_config(
            tmp_path, SMALL_SYNTH.replace("seeds = 0", "seeds = 0, 1")))
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"^run \(method=evclplus, seed=0\) "
                           r"failed: seed 0 fails$"):
            hz.run_experiment(config, workers=2)
        assert time.perf_counter() - start < 3
        assert multiprocessing.active_children() == []

    def test_killed_worker_names_its_job(self, tmp_path, capsys, monkeypatch):
        # forked workers inherit the patch: seed 0 returns at once while
        # seed 1's worker kills itself; the test process never kills itself
        parent = os.getpid()

        def return_or_kill(method, config, stream, spec, seed):
            if seed == 1 and os.getpid() != parent:
                time.sleep(0.3)
                os.kill(os.getpid(), signal.SIGKILL)
            return []

        monkeypatch.setattr(hz, "run_task_sequence", return_or_kill)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL_SYNTH.replace("evclplus", "vcl").replace(
            "seeds = 0", "seeds = 0, 1") + f"out_dir = {out}\n")
        assert hz.main(["run", "--config", cfg, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        # seed 0 is named too only if its result had not come back yet
        assert re.match(r"run failed: run (\(method=vcl, seed=0\), )?\(method=vcl, "
                        r"seed=1\) failed: A process in the process pool was "
                        r"terminated abruptly", err), err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_pooled_failure_names_method_and_seed(self, tmp_path):
        config = hz.parse_config(write_config(tmp_path, IDX_NOPE))
        with pytest.raises(RuntimeError, match=r"method=evclplus, seed=0"):
            hz.run_experiment(config, workers=2)


class TestGoldenCsv:
    """Replays committed synthetic_quick jobs that exercise every anchor term.

    evclplus covers the KL, mean and asymmetric variance anchors, evcl the
    symmetric variance anchor, vcl the KL alone; ewc over 5 tasks covers
    the sum of several Fisher anchors.
    """

    @pytest.mark.parametrize("method, seed", [(Method.EVCL_PLUS, 0), (Method.EVCL, 0),
                                              (Method.VCL, 0), (Method.EWC, 0)])
    def test_rows_match_committed_csv(self, tmp_path, method, seed):
        config = hz.parse_config(os.path.join(ROOT, "configs", "synthetic_quick.cfg"))
        table = hz.run_experiment(replace(config, methods=[method], seeds=[seed]))
        hz.write_results_csv(table, tmp_path / "results.csv")
        with open(os.path.join(ROOT, "results", "synthetic_quick", "results.csv")) as f:
            golden = [line for line in f if line.startswith(f"{method.value},{seed},")]
        got = (tmp_path / "results.csv").read_text().splitlines(keepends=True)[1:]
        assert len(got) == 15
        assert got == golden


def fake_mnist(seed=7, n_train=240, n_test=80):
    """Seeded uint8 (train, test) Datasets of 28x28 images, 10 classes: a
    fixed lit pattern per class plus pixel noise."""
    rng = SeededRng(seed)
    patterns = rng.uniform(size=(10, 784)) < 0.2
    labels = [np.arange(n) % 10 for n in (n_train, n_test)]
    return tuple(Dataset((patterns[y] * 60 + rng.integers(0, 196, size=(len(y), 784)))
                         .astype(np.uint8), y, 10) for y in labels)


# sha256 of the final net.params and the accuracy matrix of the benchmark's
# own shapes over uint8 IDX files: 784-256-256-2 split (9 column slices of
# the body) and 784-100-100-10 permuted (3 slices, one shared head).  The
# 784-wide first layer's matmul ends in other last bits under OpenBLAS with
# one thread than with several, so each pin holds both digests: (threaded,
# one thread).  The accuracies are the same under both.
IDX_PINNED_RUNS = [
    ("split_mnist", Method.EVCL_PLUS,
     ("682f915b6e48eca5059aef1444118c4427d7bfba60cea290b32ee1f87d7f7269",
      "3669c144013465295a16da7bbee83e2d045643f093d8a78d342f5794a2b1ab86"),
     [[0.6875], [0.5, 0.5625]]),
    ("split_mnist", Method.VCL_KCENTER_CORESET,
     ("091a7eb543d00286c1e665a51d235d6d45eda5386e6bff30cedde944bd0a267d",
      "cfb44fe15eebd7457fc78532ae012056dc741e5bd8568e3bc9e8a2ecfcb92cc2"),
     [[0.6875], [0.6875, 0.5]]),
    ("permuted_mnist", Method.EVCL_PLUS,
     ("cdfa99359abc6d79e98709fd94e1d6612c044bbe3341b282621c1f0a0198d862",
      "1bb5d16c9418c7e6f741028bbcae787053609314c47d6e8268d92a5eac745a51"),
     [[0.15], [0.2, 0.05]]),
    ("permuted_mnist", Method.EWC,
     ("f74d0f7f994f3715670ef1c3a7530eb49e12900299a0c1357e70f3157644382a",
      "21d60b54640ee8f96a629c3644b5424642aa43038ae35a7184ac5a0abee4aa75"),
     [[0.6375], [0.3875, 0.5]]),
]


@pytest.mark.parametrize("name, method, params_sha256, matrix", IDX_PINNED_RUNS,
                         ids=[f"{n}-{m.value}" for n, m, _, _ in IDX_PINNED_RUNS])
def test_benchmark_shapes_reproduce_pinned_bytes(tmp_path, name, method, params_sha256,
                                                 matrix):
    config = hz.ExperimentConfig(benchmark=name, methods=[method], seeds=[3],
                                 n_tasks=2, epochs=2, batch_size=32, fisher_samples=24,
                                 coreset_size=8, eval_samples=2,
                                 **idx_keys(write_idx_pair(tmp_path, *fake_mnist())))
    got, digest = run_pinned(method, config, *hz.build_stream(config, 3), 3)
    assert digest in params_sha256
    assert got == matrix


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as f:
        code = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(evclplus.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "evclplus", "selftest"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 6
    assert "RuntimeWarning" not in proc.stderr


def defined_names(body):
    """Names a block of statements defines with def or class, an if, for,
    with or try block included: they bind into the same scope."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        else:
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from defined_names(getattr(node, block, []))


def test_no_scope_of_the_tests_defines_a_name_twice():
    # a second test of one name silently replaces the first, which then never runs
    repeated = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                names = list(defined_names(scope.body))
                repeated += sorted({f"{os.path.basename(path)}: "
                                    f"{getattr(scope, 'name', 'module')}.{name}"
                                    for name in names if names.count(name) > 1})
    assert repeated == []
