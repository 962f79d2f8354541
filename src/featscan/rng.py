"""The pipeline's random numbers: SplitMix64 streams named by integers.

A stream is named by a tuple of non-negative integers, such as (seed,
purpose, index). ``derive`` folds the tuple into a 64-bit key, and draw
``i`` of the stream keyed ``k`` is ``mix64(k + (i + 1) * GAMMA)`` modulo
2**64: the (i + 1)-th output of SplitMix64 (Steele, Lea & Flood, OOPSLA
2014) started at state ``k``, with the finalizer of Vigna's
``splitmix64.c``. A draw depends only on its key and its position, so
draws split over several calls equal one call of their total size, and
no stream's draws move another's.

Every random number of the select, scan and sweep commands comes from
here, so they never load numpy's random module (about 6 MiB of resident
memory with the OpenSSL library it maps in), and their reports do not
depend on numpy's generator algorithms, which may change between numpy
releases. ``synth`` keeps numpy's generator for the inputs it writes.
"""

from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
# draws per ``outputs`` call in ``uniforms``: that call's two arrays take
# 128 KiB each, where a 100k-row bootstrap draw made whole takes 800 KiB each
_SLICE = 1 << 14


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive(*parts: int) -> int:
    """Fold non-negative integers into one 64-bit key.

    Starting from 0, each part is absorbed as key = mix64((key ^ part) +
    GAMMA), so ``derive(k)`` is draw 0 of the stream keyed ``k``. A part of
    2**64 or more is absorbed one 64-bit word at a time, low word first.
    The arithmetic is on Python ints: a product of numpy ``uint64`` scalars
    that wraps raises a ``RuntimeWarning``, so numpy integer parts are
    converted first.
    """
    key = 0
    for part in parts:
        part = int(part)
        if part < 0:
            raise ValueError(f"stream key parts must be >= 0, got {part}")
        while True:
            key = _mix64(((key ^ (part & _MASK)) + GAMMA) & _MASK)
            part >>= 64
            if not part:
                break
    return key


def derive_seed(*parts: int) -> int:
    """A seed for a stage's config: the top 32 bits of ``derive(*parts)``.

    Reports carry these seeds, and a JSON reader that parses numbers as
    doubles reads an integer exactly only below 2**53.
    """
    return derive(*parts) >> 32


def outputs(key: int, start: int, n: int) -> np.ndarray:
    """Draws ``start`` to ``start + n - 1`` of the stream keyed ``key``, as uint64.

    Array arithmetic on ``uint64`` wraps modulo 2**64 without a warning,
    as SplitMix64 needs; the offset is reduced in Python ints.
    """
    z = np.arange(n, dtype=np.uint64)
    z *= GAMMA
    z += (key + (start + 1) * GAMMA) & _MASK
    z ^= z >> 30
    z *= _M1
    z ^= z >> 27
    z *= _M2
    z ^= z >> 31
    return z


class Stream:
    """The draws of one key, taken in order.

    Each method takes the stream's next draws, one per value it returns
    (``n`` for a permutation or a sample of ``range(n)``). Draws within a
    stream never tie: ``mix64`` is a bijection and GAMMA is odd.
    """

    __slots__ = ("key", "at")

    def __init__(self, *parts: int):
        self.key = derive(*parts)
        self.at = 0

    def raw(self, n: int) -> np.ndarray:
        """The next ``n`` draws, as uint64."""
        out = outputs(self.key, self.at, n)
        self.at += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` floats in [0, 1): each draw's top 53 bits over 2**53.

        The draws are made ``_SLICE`` at a time into the result, so a long
        draw holds its integers and their shifted copy for one slice only.
        """
        u = np.empty(n)
        for lo in range(0, n, _SLICE):
            top = self.raw(min(_SLICE, n - lo))
            top >>= 11
            u[lo:lo + len(top)] = top   # exact: below 2**53
        u *= 2.0 ** -53
        return u

    def coins(self, n: int) -> np.ndarray:
        """``n`` fair coins as booleans: each draw's top bit."""
        return self.raw(n) >= 1 << 63

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of ``range(n)``: the order that sorts ``n`` draws."""
        return self.raw(n).argsort()

    def sample(self, n: int, m: int) -> np.ndarray:
        """``m`` distinct values of ``range(n)``, sorted, for ``1 <= m <= n``.

        They are the positions of the ``m`` smallest of ``n`` draws, so
        every m-subset is equally likely.
        """
        return np.sort(self.raw(n).argpartition(m - 1)[:m])
