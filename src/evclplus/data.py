"""Dataset ingestion and task-stream construction.

Images arrive in the classic IDX binary layout (big-endian magic, then
big-endian 32-bit dimension sizes, then unsigned bytes).  `load_idx` maps
the pixel payload read-only instead of reading it, so the pixels are the
file's uint8 bytes in the page cache, shared by every process that maps the
file; a mapped file must not be rewritten in place while a run reads it
(replace it instead).  Pixels stay uint8 in every task built from them
and reach the network as stored rows: the network, and k-center's
distances, scale the rows they receive to [0, 1] with
`numerics.pixel_floats`, the same bits a float64 copy would hold.  Task
streams come in three flavors: pixel-permutation tasks over one base
dataset, class-pair splits, and synthetic two-blob tasks for fast
desk-scale experiments.
Neither IDX flavor copies a pixel when its stream is built: a permuted task
stores its permutation, a split task the row indices and relabelled labels
of each split, and a task gathers one row-major copy of a split when that
split is read.
"""

import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import Array, SeededRng

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, or size mismatch)."""


@dataclass
class Dataset:
    inputs: Array   # (n, d) uint8 pixels, or float64 in [0, 1]
    labels: Array   # (n,) int64 class indices
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs)
        if self.inputs.dtype != np.uint8:
            self.inputs = self.inputs.astype(np.float64, copy=False)
        labels = np.asarray(self.labels)
        if self.inputs.ndim != 2 or labels.shape != (self.inputs.shape[0],):
            raise ValueError(f"inputs must be (n, d) with one label per row, got inputs "
                             f"{self.inputs.shape} and labels {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError("label outside [0, n_classes)")
        if labels.dtype.kind == "f" and (labels % 1).any():  # int64 would truncate
            row = int(np.flatnonzero(labels % 1)[0])  # nan lands here too
            raise ValueError(f"label {labels[row]} of row {row} is not a whole number")
        self.labels = labels.astype(np.int64, copy=False)
        if self.inputs.dtype == np.uint8:
            return  # pixels k/255 are finite and in [0, 1] by their dtype
        if not np.isfinite(self.inputs).all():
            raise ValueError("non-finite input values")
        if self.inputs.size and (self.inputs.min() < 0.0 or self.inputs.max() > 1.0):
            raise ValueError("inputs must lie in [0, 1]")

    def __len__(self):
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass
class Rows:
    """A split stored without its pixels: rows `index` of `source`, with
    their own labels.  Its length and input width need no gather."""

    source: Array   # (n_source, d) inputs the rows are taken from
    index: Array    # (n,) ascending row indices into source
    labels: Array   # (n,) int64 class indices of those rows
    n_classes: int

    def __len__(self):
        return self.index.shape[0]

    @property
    def dim(self) -> int:
        return self.source.shape[1]


class Task:
    """One task: its stored (train, test) splits, its head, and the pixel
    permutation `cols` its splits are read through (None: none).

    A stored split is a Dataset, or the Rows of a source array.  Reading
    `train` or `test` gathers the split's rows, np.take(source, index,
    axis=0) (the bytes of source[mask]), then its columns, np.take(inputs,
    cols, axis=1) (the bits and dtype of inputs[:, cols], C-ordered), each
    into a new row-major copy; a stored Dataset without `cols` is returned
    as it is.  Every read gathers again, so a reader keeps the Dataset it
    needs instead of reading twice.  `stored` gives the splits' lengths and
    input widths without a gather.
    """

    def __init__(self, train, test, head: int, cols: Array = None):
        self.stored = (train, test)
        self.head = head
        self.cols = cols

    @property
    def train(self) -> Dataset:
        return self._read(self.stored[0])

    @property
    def test(self) -> Dataset:
        return self._read(self.stored[1])

    def _read(self, split) -> Dataset:
        if isinstance(split, Rows):
            split = Dataset(np.take(split.source, split.index, axis=0), split.labels,
                            split.n_classes)
        if self.cols is None:
            return split
        return Dataset(np.take(split.inputs, self.cols, axis=1), split.labels,
                       split.n_classes)


@dataclass
class TaskStream:
    """Tasks in training order; every split must have task 1's input width."""

    tasks: list

    @property
    def input_dim(self) -> int:
        return self.tasks[0].stored[0].dim

    def __post_init__(self):
        for i, t in enumerate(self.tasks):
            for name, split in zip(("train", "test"), t.stored):
                if split.dim != self.input_dim:
                    raise ValueError(f"task {i + 1} {name} split input dim {split.dim} "
                                     f"differs from task 1 train split ({self.input_dim})")


# per IDX kind: its magic, the names of the big-endian 32-bit sizes that
# follow the magic, and the name of the payload of unsigned bytes after them
_IDX_KINDS = {"image": (IMAGE_MAGIC, ("image count", "row count", "column count"),
                        "pixel data"),
              "label": (LABEL_MAGIC, ("label count",), "label data")}


def _read_header(f, path, kind) -> tuple:
    """The sizes in the IDX header of `kind` that opens f, leaving f at the
    payload; their product of payload bytes must follow (bytes after the
    payload are ignored)."""
    magic, names, payload = _IDX_KINDS[kind]
    fields = ("magic",) + names
    raw = f.read(4 * len(fields))
    whole = len(raw) // 4
    if whole and (found := struct.unpack_from(">I", raw)[0]) != magic:
        raise IdxFormatError(f"{path}: bad {kind} magic 0x{found:08x} "
                             f"(expected 0x{magic:08x})")
    if whole < len(fields):
        raise IdxFormatError(f"{path}: truncated reading {fields[whole]} at byte "
                             f"{4 * whole}")
    sizes = struct.unpack(f">{len(names)}I", raw[4:])
    size, got = math.prod(sizes), os.fstat(f.fileno()).st_size - len(raw)
    if got < size:
        raise IdxFormatError(f"{path}: truncated reading {payload} at byte "
                             f"{len(raw) + got} (wanted {size} bytes, got {got})")
    return sizes


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset of flat uint8 pixels.

    The pixels are the image file's payload mapped read-only (mmap), not a
    copy: they are read from the page cache when a task gathers them.  The
    image file must therefore not be rewritten in place while the Dataset
    lives; a run would see the new bytes, or die of SIGBUS if the file
    shrinks.  Replacing the file (a new inode) is safe.  The labels are read
    into an int64 array.
    """
    with open(images_path, "rb") as f:
        count, rows, cols = _read_header(f, images_path, "image")
        # zero images too: a header-length mapping gives an empty view
        offset, size = f.tell(), count * rows * cols
        mapped = mmap.mmap(f.fileno(), offset + size, access=mmap.ACCESS_READ)
        pixels = np.frombuffer(mapped, dtype=np.uint8, count=size,
                               offset=offset).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        (label_count,) = _read_header(f, labels_path, "label")
        labels = np.frombuffer(f.read(label_count), dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise IdxFormatError(f"{images_path} has {count} images but {labels_path} has "
                             f"{label_count} labels")
    # one class per label up to the largest, and at least two
    return Dataset(inputs=pixels, labels=labels, n_classes=int(labels.max(initial=1)) + 1)


def write_idx(dataset: Dataset, images_path, labels_path, rows: int, cols: int):
    """Write a Dataset back to an IDX pair (inverse of load_idx).

    uint8 pixels are written as they are; float inputs as rint(x * 255),
    exact for k/255 values.  Labels must fit the file's unsigned bytes.
    """
    n, d = dataset.inputs.shape
    if rows * cols != d:
        raise ValueError(f"rows*cols = {rows * cols} != input dim {d}")
    too_big = dataset.labels[dataset.labels > 255]
    if too_big.size:
        raise ValueError(f"label {too_big[0]} does not fit an IDX label byte (0-255)")
    pixels = dataset.inputs if dataset.inputs.dtype == np.uint8 \
        else np.rint(dataset.inputs * 255.0).astype(np.uint8)
    for path, header, payload in (
            (images_path, (IMAGE_MAGIC, n, rows, cols), pixels),
            (labels_path, (LABEL_MAGIC, n), dataset.labels.astype(np.uint8))):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{len(header)}I", *header))
            f.write(payload.tobytes())


def make_permuted_tasks(base, n_tasks: int, seed: int) -> TaskStream:
    """Fixed-pixel-permutation tasks over one base (train, test) pair.

    Every task shares the base pair; nothing is copied here.  Task 1 reads
    the base pair itself (identity permutation); every later task holds its
    own random pixel shuffle, applied to both splits when they are read: each
    read gathers one row-major copy in the inputs' stored dtype (see Task).
    Labels are untouched and a single shared head serves all tasks.  A base
    split with no rows is an error naming the split.
    """
    train, test = base
    if n_tasks < 1:
        raise ValueError("n_tasks must be >= 1")
    for split, ds in (("train", train), ("test", test)):
        if not len(ds):
            raise ValueError(f"the base {split} split has no rows")
    d = train.inputs.shape[1]
    rng = SeededRng(seed)
    tasks = [Task(train, test, head=0)]
    tasks += [Task(train, test, head=0, cols=rng.permutation(d))
              for _ in range(n_tasks - 1)]
    return TaskStream(tasks)


def make_split_tasks(base, pairs) -> TaskStream:
    """Binary tasks from disjoint class pairs, relabeled {0, 1}, one head each.

    Each task stores the Rows of its pair in each base split: the row
    indices and the relabelled labels, no pixels; a read gathers the rows
    (see Task).  A pair with no rows in the train or the test split is an
    error naming the pair and the split.
    """
    train, test = base
    seen = set()
    for a, b in pairs:
        for c in (a, b):
            if not 0 <= c < train.n_classes:
                raise ValueError(f"class {c} out of range")
            if c in seen:
                raise ValueError(f"class {c} appears in more than one pair")
            seen.add(c)

    def subset(ds: Dataset, a, b, split) -> Rows:
        index = np.flatnonzero((ds.labels == a) | (ds.labels == b))
        if not index.size:
            raise ValueError(f"class pair ({a}, {b}) has no rows in the {split} split")
        return Rows(ds.inputs, index, (ds.labels[index] == b).astype(np.int64), 2)

    tasks = [Task(train=subset(train, a, b, "train"), test=subset(test, a, b, "test"),
                  head=i)
             for i, (a, b) in enumerate(pairs)]
    return TaskStream(tasks)


def make_synthetic_tasks(n_tasks: int, n_per_class: int, input_dim: int,
                         class_separation: float, seed: int) -> TaskStream:
    """Two Gaussian blobs per task along a task-specific random direction.

    Blob centers sit at +-(separation/2) on a random unit vector with unit
    isotropic noise; inputs are affinely rescaled into [0, 1] (clipping the
    rare 4-sigma stragglers) and split 80/20 into train/test.
    """
    if n_tasks < 1 or n_per_class < 1 or input_dim < 1:
        raise ValueError("counts must be >= 1")
    if class_separation < 0:
        raise ValueError("class_separation must be >= 0")
    rng = SeededRng(seed)
    half = class_separation / 2.0
    lo, hi = -(half + 4.0), (half + 4.0)
    tasks = []
    for t in range(n_tasks):
        u = rng.standard_normal(input_dim)
        u /= np.linalg.norm(u)
        points, labels = [], []
        for cls, sign in ((0, -1.0), (1, 1.0)):
            pts = sign * half * u + rng.standard_normal((n_per_class, input_dim))
            points.append(pts)
            labels.append(np.full(n_per_class, cls, dtype=np.int64))
        x = np.clip((np.vstack(points) - lo) / (hi - lo), 0.0, 1.0)
        y = np.concatenate(labels)
        order = rng.permutation(len(y))
        x, y = x[order], y[order]
        n_train = int(0.8 * len(y))
        tasks.append(Task(
            train=Dataset(x[:n_train], y[:n_train], 2),
            test=Dataset(x[n_train:], y[n_train:], 2),
            head=t,
        ))
    return TaskStream(tasks)
