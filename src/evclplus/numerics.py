"""Dense float64 kernels and deterministic seeded randomness.

Everything downstream (network, losses, benchmark loop) builds on the
primitives here, so they are deliberately small: a reproducible normal
sampler and numerically stable softmax pieces.
"""

import numbers

import numpy as np

Array = np.ndarray

# Elements per slice when an elementwise update walks a whole parameter
# buffer, and the one bound on the size of its temporaries: the anchor
# pass, Adam and k-center's distance blocks are numpy expressions over a
# slice, whose temporaries of this size (256 KB) stay in cache and are
# reused by the allocator instead of being mapped afresh on every step.
BLOCK = 32768


class SeededRng:
    """Deterministic random stream: same seed, same sequence, any machine.

    Backed by numpy's Philox 4x64 counter-based bit generator.  Normal
    variates come from the generator's ziggurat sampler, which is fixed for
    a given numpy release; pin numpy to keep streams bit-identical across
    platforms.  ``spawn()`` derives an independent child stream and is
    itself deterministic as long as spawn calls happen in a fixed order.
    """

    def __init__(self, seed: int, _seq=None):
        # int() would truncate 0.5 to 0 and turn True into seed 1
        if not isinstance(seed, numbers.Integral) or isinstance(seed, bool):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def spawn(self) -> "SeededRng":
        """Derive an independent child stream (call order defines it)."""
        child = self._seq.spawn(1)[0]
        return SeededRng(self.seed, _seq=child)

    def standard_normal(self, shape) -> Array:
        return self._gen.standard_normal(shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def integers(self, low, high=None, size=None) -> Array:
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool) -> Array:
        return self._gen.choice(n, size=size, replace=replace)

    def uniform(self, low=0.0, high=1.0, size=None) -> Array:
        return self._gen.uniform(low, high, size)


def log_softmax(logits: Array) -> Array:
    """Log of softmax along the last axis, stable under large logits.

    Shift-invariant: log_softmax(v + c) == log_softmax(v).
    """
    v = np.asarray(logits, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_softmax of empty input")
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_cross_entropy_with_grad(logits: Array, labels: Array):
    """Mean over rows of -log_softmax(logits)[i, labels[i]]; the gradient,
    softmax - onehot, is already divided by batch size."""
    v = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if v.ndim != 2 or labels.shape != (v.shape[0],):
        raise ValueError(f"bad batch shapes: logits {v.shape}, labels {labels.shape}")
    bad = labels[(labels < 0) | (labels >= v.shape[1])]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range for {v.shape[1]} classes")
    n = v.shape[0]
    ls = log_softmax(v)
    loss = float(-ls[np.arange(n), labels].mean())
    dlogits = np.exp(ls)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def pixel_floats(x: Array) -> Array:
    """Stored inputs as the float64 the maths uses: uint8 pixels become
    x / 255.0, the values load_idx used to store; float inputs pass through.

    The only place stored inputs become float64.  The network calls it on
    the rows it is given (bayes_mlp.sample_forward, and posterior_predict
    once per call), and k-center on the rows it measures, so every other
    caller passes stored rows, after any row gather.
    """
    return x / 255.0 if x.dtype == np.uint8 else x


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)
