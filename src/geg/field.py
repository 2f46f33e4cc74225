"""Prime-field helpers and the seedable randomness source.

The default modulus is 251, the largest prime that fits in one byte: every
canonical residue is a single byte, which keeps the matrix layer and the wire
codec inside fixed-width arithmetic (no arbitrary-precision values on any
protocol path).
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 251

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; the fixed base set is deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)  # runs on every MatrixFp construction
def validate_prime(p: int) -> int:
    if not is_probable_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def power(x, e: int, mul, one):
    """x**e by square and multiply, under an associative `mul` whose identity
    is `one`: the one exponentiation loop for residue arrays and matrices
    alike."""
    if e < 0:
        raise ValueError("negative exponents unsupported; invert first")
    result = one
    while e:
        if e & 1:
            result = x if result is one else mul(result, x)  # no product by the identity
        e >>= 1
        if e:
            x = mul(x, x)
    return result


@lru_cache(maxsize=None)  # callers pass e in [1, p-1]: at most p-1 tables per modulus
def power_table(e: int, p: int) -> np.ndarray:
    """Read-only int64 array holding v**e mod p at index v, for every residue
    v: square-and-multiply on the whole array at once."""
    table = power(np.arange(p, dtype=np.int64), e, lambda a, b: a * b % p,
                  np.ones(p, dtype=np.int64))
    table.setflags(write=False)
    return table


class RandomSource:
    """Uniform sampling over field domains with two interchangeable backends.

    ``deterministic`` reproduces an identical stream from an identical seed
    and exists for tests and replayable transcripts.  ``crypto`` draws from
    the operating system and is the only mode suitable for real key material.
    Both modes draw every value, bytes included, from one ``getrandbits``.
    All integer draws are rejection-based, so no modulo bias in either mode.
    """

    __slots__ = ("_getrandbits", "mode")

    def __init__(self, getrandbits, mode: str):
        self._getrandbits = getrandbits
        self.mode = mode

    @classmethod
    def deterministic(cls, seed: int | bytes = 0) -> "RandomSource":
        if isinstance(seed, (bytes, bytearray)):
            seed = int.from_bytes(seed, "big")  # leading zero bytes drop out
        if not isinstance(seed, int) or seed < 0:  # None seeds from the OS, -5 replays 5
            raise ValueError(f"seed must be bytes or a non-negative int, got {seed!r}")
        return cls(random.Random(seed).getrandbits, "deterministic-test")

    @classmethod
    def crypto(cls) -> "RandomSource":
        return cls(random.SystemRandom().getrandbits, "cryptographic")

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on fixed-width bit draws."""
        if n <= 0:
            raise ValueError("bound must be positive")
        if n == 1:
            return 0
        k = n.bit_length()
        while True:
            r = self._getrandbits(k)
            if r < n:
                return r

    def nonzero(self, p: int = DEFAULT_PRIME) -> int:
        """Uniform residue in [1, p-1]."""
        return 1 + self.randbelow(p - 1)

    def distinct_nonzero(self, count: int, p: int = DEFAULT_PRIME) -> list[int]:
        """`count` pairwise-distinct uniform residues from [1, p-1]."""
        if not 1 <= count <= p - 1:
            raise ValueError(f"cannot draw {count} distinct values from [1, {p - 1}]")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.nonzero(p)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    def array_mod(self, count: int, p: int = DEFAULT_PRIME) -> np.ndarray:
        """Uniform int64 array of `count` residues mod p (byte-sized p only).

        Bulk path used for matrix sampling: raw bytes are drawn, bytes at or
        above the largest multiple of p below 256 are rejected, the rest fold
        by one modulo.  For p = 251 this is plain rejection of {251..255}.
        SystemRandom.getrandbits(8k) is k os.urandom bytes read big-endian.
        """
        if p > DEFAULT_PRIME:
            raise ValueError("array_mod supports byte-sized moduli only")
        if count < 0:
            raise ValueError(f"array_mod count must be non-negative, got {count}")
        limit = 256 - 256 % p
        parts: list[np.ndarray] = [np.empty(0, dtype=np.uint8)]
        have = 0
        while have < count:
            need = count - have
            draw = need + (need >> 4) + 16
            buf = np.frombuffer(self._getrandbits(8 * draw).to_bytes(draw, "big"), dtype=np.uint8)
            parts.append(buf[buf < limit])
            have += parts[-1].size
        return np.concatenate(parts)[:count].astype(np.int64) % p
