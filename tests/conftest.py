import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from evclplus.continual import run_task_sequence
from evclplus.data import Dataset, write_idx
from evclplus.numerics import SeededRng


def run_pinned(method, config, stream, spec, seed):
    """run_task_sequence's accuracy matrix and the sha256 of the final
    net.params: the two halves of every byte pin."""
    final = []

    def observe(t, net, anchors, snap):
        final[:] = [hashlib.sha256(net.params.tobytes()).hexdigest()]

    return run_task_sequence(method, config, stream, spec, seed,
                             on_task_end=observe), final[0]


def traced_peak(call):
    """call() and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_digits(n=1800, seed=1234):
    """Deterministic 8x8 images of 10 classes, in [0, 1].

    Each class is a fixed random pattern of lit pixels.  An example is its
    class pattern at a random brightness, shifted sideways by up to one
    pixel (wrapping round), plus pixel noise of standard deviation 0.3.
    The noise and the shift make the classes overlap, so a small MLP
    learns them well but not perfectly.
    """
    rng = SeededRng(seed)
    patterns = (rng.uniform(size=(10, 8, 8)) < 0.35).astype(np.float64)
    labels = (np.arange(n) % 10)[rng.permutation(n)]
    images = patterns[labels] * rng.uniform(0.5, 1.0, size=(n, 1, 1))
    shifts = rng.integers(-1, 2, size=n)
    images = np.stack([np.roll(im, s, axis=1) for im, s in zip(images, shifts)])
    images += 0.3 * rng.standard_normal(images.shape)
    return np.clip(images.reshape(n, 64), 0.0, 1.0), labels


def write_idx_pair(root, train, test):
    """Write a (train, test) pair of Datasets as IDX files of square images
    under root.  Returns {"train": (images, labels), "test": (images, labels)}.
    """
    paths = {}
    for split, ds in (("train", train), ("test", test)):
        side = math.isqrt(ds.inputs.shape[1])
        paths[split] = (str(root / f"{split}-images"), str(root / f"{split}-labels"))
        write_idx(ds, *paths[split], rows=side, cols=side)
    return paths


def idx_keys(paths, prefix="mnist"):
    """write_idx_pair's paths as the four <prefix>_* config keys."""
    (images, labels), (test_images, test_labels) = paths["train"], paths["test"]
    return {f"{prefix}_images": images, f"{prefix}_labels": labels,
            f"{prefix}_test_images": test_images, f"{prefix}_test_labels": test_labels}


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """Digit-like data (see make_digits) as IDX files: 1200 train, 600 test rows.

    Stands in for MNIST-format data in pipeline tests: same loader, same
    task constructions, just smaller images.
    """
    x, y = make_digits()
    n_train = 1200
    return write_idx_pair(tmp_path_factory.mktemp("digits"),
                          Dataset(x[:n_train], y[:n_train], 10),
                          Dataset(x[n_train:], y[n_train:], 10))
