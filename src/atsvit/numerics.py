"""Dense array primitives and seeded deterministic randomness.

Everything downstream (attention, sampling, the model) works on plain numpy
arrays. Two precision modes are used by convention: float64 for correctness
and gradient tests, float32 for training and benchmark throughput. All
reductions go through numpy's fixed-order kernels, so results are
bit-reproducible run to run on a given platform; the Rng below is
additionally bit-reproducible across platforms.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

TEST_DTYPE = np.float64
FAST_DTYPE = np.float32

_INV_SQRT_2PI = 0.3989422804014327


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf from finite inputs (overflow)."""


def assert_finite(name: str, x: np.ndarray) -> None:
    # The ufunc reduce skips np.all's Python-level dispatch, which costs
    # about as much as the test itself on the small arrays of one image.
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NonFiniteError(f"non-finite values in {name}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit shape check. Operands of equal
    ndim > 2 are stacks of matrices with equal leading dims, multiplied
    pairwise (one product per head, say)."""
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return a @ b


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability.

    Each output row is nonnegative and sums to 1.
    """
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF GELU: x * Phi(x). No tanh approximation."""
    return x * ndtr(x)


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of x * Phi(x) = Phi(x) + x * phi(x)."""
    return ndtr(x) + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


# ---------------------------------------------------------------------------
# Counter-based random number generation (splitmix64 output function).
# Word i of a stream is mix(seed + (i+1) * GOLDEN), all mod 2^64, so the
# stream is a pure function of (seed, i): identical seeds give identical
# streams on every platform and under any threading layout.
# ---------------------------------------------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_arr(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Rng:
    """Seeded counter-based generator.

    Consuming n words advances an integer counter; there is no other state,
    so a stream can be regenerated or split deterministically. Scalar draws
    (`uniform()`, `integers(low, high)`) compute their one word in Python
    ints; shaped draws compute theirs as a uint64 array in `_raw`. Both give
    the same words, so how a stream is split into calls never changes it.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = (seed ^ _mix64_int((stream + 1) * _GOLDEN)) & _MASK
        self.counter = 0

    def spawn(self, tag: int) -> "Rng":
        """Derive an independent child stream; does not consume this stream."""
        return Rng(self.seed, stream=tag + 1)

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64_arr(np.uint64(self.seed) + idx * np.uint64(_GOLDEN))

    def _word(self) -> int:
        """The next word, as `_raw(1)[0]` would give it, without numpy."""
        self.counter += 1
        return _mix64_int(self.seed + self.counter * _GOLDEN)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform floats in [0, 1) with 53-bit resolution."""
        if not shape:
            return np.float64((self._word() >> 11) * (2.0 ** -53))
        n = int(np.prod(shape))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        """Standard Box-Muller normals scaled by std."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])[:n]
        out = z * std
        return out.reshape(shape) if shape else out[0]

    def integers(self, low: int, high: int, size: int | None = None) -> np.ndarray | int:
        """Integers in [low, high). Modulo reduction; bias is negligible for
        the small ranges used here."""
        if high <= low:
            raise ValueError("empty integer range")
        if size is None:
            return int(low) + self._word() % int(high - low)
        return low + (self._raw(size) % np.uint64(high - low)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return np.argsort(self._raw(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """k distinct values from range(n), in draw order."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from {n}")
        return self.permutation(n)[:k]
