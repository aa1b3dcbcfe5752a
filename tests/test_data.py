import mmap
import re
import struct

import numpy as np
import pytest
from conftest import write_idx_pair

from evclplus.data import (
    Dataset,
    IdxFormatError,
    Rows,
    Task,
    TaskStream,
    load_idx,
    make_permuted_tasks,
    make_split_tasks,
    make_synthetic_tasks,
    write_idx,
)
from evclplus.numerics import SeededRng, pixel_floats


def hand_idx_pair(tmp_path, pixels, labels, rows=3, cols=3,
                  image_magic=0x00000803, label_magic=0x00000801,
                  truncate_images=None):
    """Byte-level IDX fixtures built directly from the format definition."""
    img = tmp_path / "imgs"
    lbl = tmp_path / "lbls"
    payload = struct.pack(">IIII", image_magic, len(pixels), rows, cols)
    payload += bytes(b for image in pixels for b in image)
    if truncate_images is not None:
        payload = payload[:truncate_images]
    img.write_bytes(payload)
    lbl.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return str(img), str(lbl)


class TestIdxLoader:
    def test_hand_built_fixture_exact_values(self, tmp_path):
        image0 = [0, 51, 102, 153, 204, 255, 10, 20, 30]
        image1 = [255] * 9
        img, lbl = hand_idx_pair(tmp_path, [image0, image1], [7, 2])
        ds = load_idx(img, lbl)
        assert ds.inputs.shape == (2, 9)
        np.testing.assert_allclose(pixel_floats(ds.inputs)[0],
                                   np.array(image0) / 255.0, rtol=0, atol=0)
        np.testing.assert_array_equal(ds.labels, [7, 2])

    def test_pixel_255_scales_to_exactly_one(self, tmp_path):
        img, lbl = hand_idx_pair(tmp_path, [[255] * 9], [0])
        ds = load_idx(img, lbl)
        assert pixel_floats(ds.inputs)[0, 0] == 1.0

    def test_pixels_are_a_read_only_mapping_of_the_file(self, tmp_path):
        img, lbl = hand_idx_pair(tmp_path, [[1] * 9, [2] * 9], [0, 1])
        ds = load_idx(img, lbl)
        assert not ds.inputs.flags.writeable
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 7
        root = ds.inputs
        while isinstance(root, np.ndarray):
            root = root.base
        assert isinstance(root.obj, mmap.mmap)  # a view of a mapping, not a copy
        assert ds.labels.dtype == np.int64 and ds.labels.flags.writeable

    def test_zero_images_load_without_a_mapping(self, tmp_path):
        img, lbl = hand_idx_pair(tmp_path, [], [])
        ds = load_idx(img, lbl)
        assert ds.inputs.shape == (0, 9) and ds.inputs.dtype == np.uint8
        assert not ds.inputs.flags.writeable
        assert ds.inputs.flags.owndata  # made here, not a view of a mapping
        assert len(ds) == 0

    def test_bytes_after_the_payloads_are_ignored(self, tmp_path):
        img, lbl = hand_idx_pair(tmp_path, [[0, 51, 102] * 3, [255] * 9], [7, 2])
        with open(img, "ab") as f:
            f.write(b"\x09" * 100)
        with open(lbl, "ab") as f:
            f.write(b"\x05" * 10)
        ds = load_idx(img, lbl)
        np.testing.assert_array_equal(ds.inputs, [[0, 51, 102] * 3, [255] * 9])
        np.testing.assert_array_equal(ds.labels, [7, 2])

    def test_round_trip(self, tmp_path):
        rng = SeededRng(0)
        raw = rng.integers(0, 256, size=(5, 12)).astype(np.float64) / 255.0
        ds = Dataset(raw, rng.integers(0, 4, size=5), 4)
        write_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=4)
        back = load_idx(tmp_path / "i", tmp_path / "l")
        np.testing.assert_array_equal(pixel_floats(back.inputs), ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_uint8_round_trip_writes_the_stored_pixels(self, tmp_path):
        rng = SeededRng(1)
        pixels = rng.integers(0, 256, size=(5, 12)).astype(np.uint8)
        ds = Dataset(pixels, rng.integers(0, 4, size=5), 4)
        write_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=4)
        back = load_idx(tmp_path / "i", tmp_path / "l")
        assert back.inputs.dtype == np.uint8
        np.testing.assert_array_equal(back.inputs, pixels)

    def test_write_rejects_label_above_255(self, tmp_path):
        ds = Dataset(np.zeros((2, 9)), np.array([3, 300]), 301)
        with pytest.raises(ValueError, match="label 300"):
            write_idx(ds, tmp_path / "i", tmp_path / "l", rows=3, cols=3)

    def test_write_rejects_bad_geometry(self):
        ds = Dataset(np.zeros((2, 9)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError):
            write_idx(ds, "x", "y", rows=2, cols=4)


class TestDatasetInputs:
    def test_uint8_pixels_kept_as_they_are(self):
        pixels = np.array([[0, 128, 255]], dtype=np.uint8)
        ds = Dataset(pixels, [0], 2)
        assert ds.inputs is pixels

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"),
        (-0.1, r"\[0, 1\]"), (1.5, r"\[0, 1\]")])
    def test_float_inputs_checked(self, bad, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.array([[0.5, bad]]), [0], 2)


def toy_base(n=60, d=9, n_classes=10, seed=0, dtype=np.float64):
    """A (train, test) pair of n and n // 2 rows in [0, 1], or their pixels
    rounded to uint8 when dtype is np.uint8."""
    rng = SeededRng(seed)
    pair = tuple(Dataset(rng.uniform(0, 1, size=(m, d)),
                         rng.integers(0, n_classes, size=m), n_classes)
                 for m in (n, n // 2))
    if dtype == np.uint8:
        pair = tuple(Dataset(np.rint(ds.inputs * 255).astype(np.uint8), ds.labels,
                             n_classes) for ds in pair)
    return pair


class TestPermutedTasks:
    def test_first_task_is_identity(self):
        base = toy_base()
        stream = make_permuted_tasks(base, 3, seed=5)
        np.testing.assert_array_equal(stream.tasks[0].train.inputs,
                                      base[0].inputs)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_base_split_rejected_naming_it(self, split):
        base = dict(zip(("train", "test"), toy_base()))
        ds = base[split]
        base[split] = Dataset(ds.inputs[:0], ds.labels[:0], ds.n_classes)
        with pytest.raises(ValueError, match=rf"^the base {split} split has no rows$"):
            make_permuted_tasks((base["train"], base["test"]), 2, seed=5)

    def test_uint8_stream_shares_task_one_and_gathers_bytes(self):
        base = toy_base(dtype=np.uint8)
        stream = make_permuted_tasks(base, 3, seed=5)
        assert stream.tasks[0].train is base[0] and stream.tasks[0].test is base[1]
        for task in stream.tasks[1:]:
            assert task.train.inputs.dtype == task.test.inputs.dtype == np.uint8

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_every_read_gathers_the_base_columns_row_major(self, dtype):
        base = toy_base(dtype=dtype)
        stream = make_permuted_tasks(base, 3, seed=5)
        assert stream.tasks[0].train is base[0] and stream.tasks[0].test is base[1]
        for task in stream.tasks[1:]:
            assert task.stored[0] is base[0] and task.stored[1] is base[1]
            for _ in range(2):  # every read gathers afresh, the same bytes
                for read, ds in ((task.train, base[0]), (task.test, base[1])):
                    expected = ds.inputs[:, task.cols]  # one permutation for both
                    assert read.inputs.dtype == dtype
                    assert read.inputs.flags.c_contiguous
                    assert read.inputs.tobytes() == expected.tobytes()
                    assert read.labels is ds.labels
        assert not np.array_equal(stream.tasks[1].cols, stream.tasks[2].cols)

    def test_stream_shape_checks_read_no_pixels(self, monkeypatch):
        monkeypatch.setattr(Task, "_read",
                            lambda task, split: pytest.fail("split gathered"))
        streams = (make_permuted_tasks(toy_base(), 3, seed=5),
                   make_split_tasks(toy_base(n=200), [(0, 1), (2, 3)]))
        for stream in streams:
            assert stream.input_dim == 9
            assert TaskStream(stream.tasks).input_dim == 9
            assert all(len(split) > 0 for task in stream.tasks for split in task.stored)

    def test_permutations_are_bijections(self):
        base = toy_base()
        stream = make_permuted_tasks(base, 4, seed=6)
        x = base[0].inputs
        for task in stream.tasks[1:]:
            np.testing.assert_allclose(np.sort(task.train.inputs, axis=1),
                                       np.sort(x, axis=1))
            assert not np.array_equal(task.train.inputs, x)

    def test_labels_unchanged(self):
        base = toy_base()
        stream = make_permuted_tasks(base, 3, seed=7)
        for task in stream.tasks:
            np.testing.assert_array_equal(task.train.labels, base[0].labels)
            assert task.head == 0

    def test_train_and_test_share_permutation(self):
        base = toy_base()
        stream = make_permuted_tasks(base, 2, seed=8)
        task = stream.tasks[1]
        # recover the permutation from train, verify it maps test too
        src = base[0].inputs[0]
        perm = [int(np.argmin(np.abs(src - v))) for v in task.train.inputs[0]]
        np.testing.assert_allclose(task.test.inputs[0],
                                   base[1].inputs[0][perm])


class TestSplitTasks:
    def test_five_pairs_give_five_tasks(self):
        base = toy_base(n=200)
        stream = make_split_tasks(base, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
        assert len(stream.tasks) == 5
        assert [t.head for t in stream.tasks] == [0, 1, 2, 3, 4]

    def test_sizes_partition_covered_classes(self):
        base = toy_base(n=200)
        pairs = [(0, 1), (2, 3)]
        stream = make_split_tasks(base, pairs)
        covered = sum(int((base[0].labels == c).sum()) for p in pairs for c in p)
        assert sum(len(t.train) for t in stream.tasks) == covered

    def test_split_and_synthetic_tasks_read_back_as_stored(self):
        base = toy_base(n=200)
        for task in make_synthetic_tasks(2, 20, 4, 3.0, seed=0).tasks:
            assert task.cols is None
            assert task.train is task.stored[0] and task.test is task.stored[1]
        for task in make_split_tasks(base, [(0, 1), (2, 3)]).tasks:
            assert task.cols is None
            for split, ds in zip(task.stored, base):
                # the rows of the base inputs, not a copy of them
                assert isinstance(split, Rows) and split.source is ds.inputs
                assert len(split) == len(split.labels) and split.dim == 9
            reads = (task.train, task.train)
            assert reads[0] is not reads[1]  # every read gathers afresh
            assert reads[0].inputs.tobytes() == reads[1].inputs.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_every_read_equals_the_eager_mask_gather(self, dtype):
        base = toy_base(n=200, dtype=dtype)
        pairs = [(0, 1), (2, 3), (4, 9)]
        stream = make_split_tasks(base, pairs)
        for task, (a, b) in zip(stream.tasks, pairs):
            for _ in range(2):
                for read, ds in ((task.train, base[0]), (task.test, base[1])):
                    mask = (ds.labels == a) | (ds.labels == b)
                    expected = ds.inputs[mask]  # the copy a split used to store
                    assert read.inputs.dtype == dtype
                    assert read.inputs.flags.c_contiguous
                    assert read.inputs.shape == expected.shape
                    assert read.inputs.tobytes() == expected.tobytes()
                    np.testing.assert_array_equal(read.labels,
                                                  (ds.labels[mask] == b).astype(np.int64))
                    assert read.labels.dtype == np.int64 and read.n_classes == 2

    def test_relabeled_binary(self):
        base = toy_base(n=200)
        stream = make_split_tasks(base, [(4, 9)])
        labels = stream.tasks[0].train.labels
        assert set(labels.tolist()) <= {0, 1}
        orig = base[0].labels[(base[0].labels == 4) | (base[0].labels == 9)]
        np.testing.assert_array_equal(labels, (orig == 9).astype(int))

    def test_overlapping_pairs_rejected(self):
        base = toy_base()
        with pytest.raises(ValueError, match="more than one pair"):
            make_split_tasks(base, [(0, 1), (1, 2)])

    def test_out_of_range_class_rejected(self):
        base = toy_base(n_classes=4)
        with pytest.raises(ValueError, match="out of range"):
            make_split_tasks(base, [(0, 7)])

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_pair_without_rows_named_with_its_split(self, tmp_path, split):
        rng = SeededRng(1)
        full = np.arange(60) % 10
        without = full[(full != 2) & (full != 3)]  # labels still reach 9
        paths = write_idx_pair(tmp_path, *(
            Dataset(rng.uniform(0, 1, size=(len(y), 4)), y, 10)
            for y in (without if name == split else full for name in ("train", "test"))))
        base = [load_idx(*paths[name]) for name in ("train", "test")]
        message = rf"^class pair \(2, 3\) has no rows in the {split} split$"
        with pytest.raises(ValueError, match=message):
            make_split_tasks(tuple(base), [(0, 1), (2, 3), (4, 5)])


class TestSyntheticTasks:
    @staticmethod
    def direction_accuracy(task):
        """Test accuracy of the direction between the train class means."""
        x, y = task.train.inputs, task.train.labels
        direction = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
        scores = (task.test.inputs - x.mean(axis=0)) @ direction
        return np.mean((scores > 0) == (task.test.labels == 1))

    def test_linear_classifier_on_recovered_direction(self):
        for task in make_synthetic_tasks(3, 200, 10, 8.0, seed=9).tasks:
            assert self.direction_accuracy(task) > 0.99

    def test_same_seed_identical(self):
        a = make_synthetic_tasks(2, 50, 6, 4.0, seed=10)
        b = make_synthetic_tasks(2, 50, 6, 4.0, seed=10)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.train.inputs, tb.train.inputs)
            np.testing.assert_array_equal(ta.test.labels, tb.test.labels)

    def test_zero_separation_near_chance(self):
        task = make_synthetic_tasks(1, 500, 8, 0.0, seed=11).tasks[0]
        assert abs(self.direction_accuracy(task) - 0.5) < 0.05

    def test_inputs_in_unit_box_and_split_disjoint(self):
        stream = make_synthetic_tasks(2, 40, 5, 6.0, seed=12)
        for task in stream.tasks:
            assert task.train.inputs.min() >= 0.0
            assert task.train.inputs.max() <= 1.0
            train_rows = {row.tobytes() for row in task.train.inputs}
            test_rows = {row.tobytes() for row in task.test.inputs}
            assert not train_rows & test_rows

    def test_split_ratio(self):
        stream = make_synthetic_tasks(1, 100, 4, 3.0, seed=13)
        assert len(stream.tasks[0].train) == 160  # floor(0.8 * 200)
        assert len(stream.tasks[0].test) == 40

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_synthetic_tasks(0, 10, 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_tasks(1, 10, 4, -1.0, seed=0)


class TestStreamValidation:
    def test_dim_mismatch_rejected(self):
        # every stream is checked when it is built, a hand-built one too
        a, b = toy_base(d=9), toy_base(d=11)
        for tasks, split in (([Task(a[0], a[1], 0), Task(b[0], b[1], 1)], "task 2 train"),
                             ([Task(a[0], b[1], 0)], "task 1 test")):
            with pytest.raises(ValueError, match=rf"^{split} split input dim 11 differs "
                                                 rf"from task 1 train split \(9\)$"):
                TaskStream(tasks)


def idx_pair_with(tmp_path, name, payload):
    """A hand_idx_pair of two images labelled 0 and 1 whose image file, or
    label file if name ends in "labels", is replaced by payload, in name."""
    img, lbl = hand_idx_pair(tmp_path, [[0] * 9, [1] * 9], [0, 1])
    (tmp_path / name).write_bytes(payload)
    other = str(tmp_path / name)
    return (img, other) if name.endswith("labels") else (other, lbl)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp_path: Dataset(np.zeros((3, 2)), [0, 1], 2),
     ValueError, r"^inputs must be \(n, d\) with one label per row, got inputs "
                 r"\(3, 2\) and labels \(2,\)$"),
    (lambda tmp_path: Dataset(np.zeros(3), [0, 1, 0], 2),
     ValueError, r"^inputs must be \(n, d\) with one label per row, got inputs "
                 r"\(3,\) and labels \(3,\)$"),
    (lambda tmp_path: Dataset(np.zeros((2, 2)), [0, 2], 2),
     ValueError, r"^label outside \[0, n_classes\)$"),
    (lambda tmp_path: Dataset(np.zeros((2, 3)), [0.0, 1.7], 2),
     ValueError, r"^label 1.7 of row 1 is not a whole number$"),
    (lambda tmp_path: Dataset(np.zeros((2, 3)), [np.nan, 1.0], 2),
     ValueError, r"^label nan of row 0 is not a whole number$"),
    (lambda tmp_path: load_idx(*idx_pair_with(
        tmp_path, "short-labels", struct.pack(">II", 0x00000801, 2) + bytes([3]))),
     IdxFormatError, r"^<tmp>/short-labels: truncated reading label data at byte 9 "
                     r"\(wanted 2 bytes, got 1\)$"),
    (lambda tmp_path: load_idx(*hand_idx_pair(tmp_path, [[0] * 9], [0],
                                              image_magic=0x00000802)),
     IdxFormatError, r"^<tmp>/imgs: bad image magic 0x00000802 \(expected 0x00000803\)$"),
    (lambda tmp_path: load_idx(*hand_idx_pair(tmp_path, [[0] * 9], [0],
                                              label_magic=0x00000805)),
     IdxFormatError, r"^<tmp>/lbls: bad label magic 0x00000805 \(expected 0x00000801\)$"),
    (lambda tmp_path: load_idx(*hand_idx_pair(tmp_path, [[0] * 9], [0],
                                              truncate_images=20)),
     IdxFormatError, r"^<tmp>/imgs: truncated reading pixel data at byte 20 "
                     r"\(wanted 9 bytes, got 4\)$"),
    (lambda tmp_path: load_idx(*idx_pair_with(
        tmp_path, "short-imgs", struct.pack(">I", 0x00000803) + b"\x00\x00")),
     IdxFormatError, r"^<tmp>/short-imgs: truncated reading image count at byte 4$"),
    (lambda tmp_path: load_idx(*idx_pair_with(
        tmp_path, "lone-labels", struct.pack(">II", 0x00000801, 1) + bytes([3]))),
     IdxFormatError, r"^<tmp>/imgs has 2 images but <tmp>/lone-labels has 1 labels$"),
    (lambda tmp_path: make_permuted_tasks(toy_base(), 0, seed=0),
     ValueError, r"^n_tasks must be >= 1$"),
], ids=["too_few_labels", "one_dim_inputs", "label_too_large", "fractional_label",
        "nan_label", "short_label_file", "wrong_image_magic", "wrong_label_magic",
        "truncated_pixels", "truncated_header", "count_mismatch", "no_permuted_tasks"])
def test_bad_input_rejected_with_its_message(tmp_path, call, error, message):
    # <tmp> stands for the directory of the files a row writes
    with pytest.raises(error, match=message.replace("<tmp>", re.escape(str(tmp_path)))):
        call(tmp_path)
