import hashlib

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


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """Digit-like data (see make_digits) as IDX files: 1200 train, 600 test rows.

    Stands in for MNIST-format data in pipeline tests: same loader, same
    task constructions, just smaller images.
    """
    x, y = make_digits()
    n_train = 1200
    root = tmp_path_factory.mktemp("digits")
    paths = {}
    for name, (xs, ys) in (("train", (x[:n_train], y[:n_train])),
                           ("test", (x[n_train:], y[n_train:]))):
        ds = Dataset(xs, ys, 10)
        img = root / f"{name}-images-idx3-ubyte"
        lbl = root / f"{name}-labels-idx1-ubyte"
        write_idx(ds, img, lbl, rows=8, cols=8)
        paths[name] = (str(img), str(lbl))
    return paths
