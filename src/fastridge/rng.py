"""Deterministic, splittable random streams for the benchmark harness.

The bit source is the Philox4x64-10 counter-based generator (numpy's
``np.random.Philox``), keyed per stream so that any (seed, path) pair names
the same infinite bit sequence on every platform and in any execution
order. All distribution transforms are fixed here rather than delegated to
numpy's Generator methods, whose algorithms are not part of numpy's
compatibility guarantee:

* 64 raw bits -> uniform double on [0, 1): ``(word >> 11) * 2**-53``.
* Standard normals: Box-Muller on uniform pairs. A call for m normals
  consumes k = ceil(m/2) pairs as one block of 2k words; with
  u1 = uniforms from words [0:k] and u2 = from words [k:2k],
  r = sqrt(-2 log(1 - u1)) (1 - u1 lies in (0, 1], so the log is finite),
  theta = 2 pi u2, and the output is [r cos(theta), r sin(theta)][:m].
* Bernoulli(prob): one uniform per draw, success iff u < prob, emitted as
  0.0/1.0 doubles.

A draw's only data-sized array is its output: the raw words are drawn into
one buffer, which is then read as doubles and transformed in place, block
by block (_BLOCK words or Box-Muller pairs at a time), so numpy's
temporaries are the size of one block. Every block but the last is a whole
number of SIMD vectors, so each element takes the same vector or scalar
path as in one call over the whole array, and the blocks change no bit of
the result.

Stream keys are derived from the user seed and a path of nonnegative
integers with a splitmix64 sponge: absorb each path component by XOR into
the state and advance once, then squeeze the two 64-bit Philox key words.

Arguments follow the library's rules: the seed and each path component
are counts from 0 to MAX_SEED = 2^64 - 1, each draw count m one of at least
0 and chi_square's df one of at least 1 (data.count); bernoulli's prob is a positive real number
(data.real) below 1. Anything else raises DataError naming the argument.
"""

from __future__ import annotations

import math

import numpy as np

from .data import count, real
from .exceptions import DataError

_M64 = (1 << 64) - 1
# The largest seed or path component: the sponge absorbs 64-bit words, so a
# larger one would draw what a smaller one draws.
MAX_SEED = _M64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_PI = 2.0 * math.pi
# Words (or Box-Muller pairs) transformed per block: a power of two, so a
# block is a whole number of SIMD vectors.
_BLOCK = 1 << 14


def _splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (new_state, output word)."""
    state = (state + _GAMMA) & _M64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return state, z ^ (z >> 31)


def _absorb(seed: int, path) -> int:
    """The sponge state after absorbing a seed and path, each a count from 0
    to MAX_SEED."""
    count("seed", seed, 0, MAX_SEED)
    state = int(seed)  # a numpy integer would overflow in the mixing below
    for component in path:
        count("path component", component, 0, MAX_SEED)
        state, _ = _splitmix64(state ^ int(component))
    return state


def derive_seed(seed: int, *path: int) -> int:
    """Fold a seed and a path of nonnegative integers into one 64-bit value.

    Used both to key Philox streams and to mint per-replication sub-seeds;
    the fold is the documented splitmix64 sponge so other implementations
    can reproduce it.
    """
    return _splitmix64(_absorb(seed, path))[1]


def _to_uniforms(block: np.ndarray) -> None:
    """Overwrite a block of raw words, viewed as doubles, with their
    uniforms: (word >> 11) * 2**-53."""
    words = block.view(np.uint64)
    np.right_shift(words, np.uint64(11), out=words)
    np.multiply(words, 2.0**-53, out=block)


class RandomStream:
    """One named substream: a Philox generator plus fixed transforms.

    Successive calls consume the stream in order; construct a fresh
    RandomStream to restart from the beginning of the same sequence.
    """

    def __init__(self, seed: int, *path: int):
        state, k0 = _splitmix64(_absorb(seed, path))
        _, k1 = _splitmix64(state)
        self._bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))

    def raw(self, m: int) -> np.ndarray:
        """m raw 64-bit words from the counter-based source."""
        count("m", m, 0)
        return self._bitgen.random_raw(m)

    def uniforms(self, m: int) -> np.ndarray:
        """m doubles uniform on [0, 1): top 53 bits of each word, each in
        place of its word."""
        u = self.raw(m).view(np.float64)
        for i in range(0, m, _BLOCK):
            _to_uniforms(u[i : i + _BLOCK])
        return u

    def normals(self, m: int) -> np.ndarray:
        """m standard normals via Box-Muller, block layout as documented:
        r in place of u1, then r cos(theta) there and r sin(theta) in place
        of u2."""
        count("m", m, 0)
        k = (m + 1) // 2
        z = self.raw(2 * k).view(np.float64)
        cos = np.empty(min(k, _BLOCK))
        for i in range(0, k, _BLOCK):
            r, theta = z[i : min(i + _BLOCK, k)], z[k + i : k + i + _BLOCK]
            c = cos[: len(r)]
            _to_uniforms(r)
            np.negative(r, out=r)
            np.log1p(r, out=r)
            np.multiply(r, -2.0, out=r)
            np.sqrt(r, out=r)
            _to_uniforms(theta)
            np.multiply(theta, _TWO_PI, out=theta)
            np.cos(theta, out=c)
            np.sin(theta, out=theta)
            theta *= r
            r *= c
        return z[:m]

    def bernoulli(self, prob: float, m: int) -> np.ndarray:
        """m Bernoulli(prob) draws as 0.0/1.0 doubles, for prob strictly
        between 0 and 1, each in place of its uniform."""
        real("prob", prob)
        if not prob < 1.0:
            raise DataError("prob must lie strictly between 0 and 1")
        u = self.uniforms(m)
        for i in range(0, m, _BLOCK):
            block = u[i : i + _BLOCK]
            block[...] = block < prob
        return u

    def chi_square(self, df: int) -> float:
        """One chi-square draw with df degrees of freedom (a count of at
        least 1), as the sum of df squared standard normals (consumes
        exactly one normals(df) block)."""
        count("df", df, 1)
        z = self.normals(df)
        return float(z @ z)
