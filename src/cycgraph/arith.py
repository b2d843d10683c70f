"""Small number-theoretic helpers (trial division scale).

Sweeps meet the same integers over and over, so ``factorize`` and
``coprime_mask`` are cached: each cache is bounded by a constant and holds
immutable values (tuples, bytes) that no caller can change.
"""

from __future__ import annotations

from functools import lru_cache

#: distinct integers whose factorization is kept: a --max-n 2000 sweep meets under 2000.
#: A run builds each Z(n) divisor graph once, whatever --max-n; past 4096 the Z_n
#: verifiers' own formulas factor each n once more per verifier, since an LRU cache
#: scanned in order keeps none of what the next verifier reads first.
FACTOR_CACHE_SIZE = 4096
#: distinct orders whose coprime mask is kept: at most this many times groups.ORDER_CAP bytes
COPRIME_CACHE_SIZE = 1024


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as a tuple of (prime, exponent), primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=COPRIME_CACHE_SIZE)
def coprime_mask(m: int) -> bytes:
    """m bytes, the k-th 1 iff gcd(k, m) = 1: multiples of each prime p | m are cleared."""
    mask = bytearray(b"\x01") * m
    for p, _ in factorize(m):
        mask[::p] = bytes(len(range(0, m, p)))
    return bytes(mask)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) if n = p^a with a >= 1, else None."""
    f = factorize(n) if n >= 2 else ()
    if len(f) == 1:
        return f[0]
    return None


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    ds = [1]
    for p, a in factorize(n):
        ds = [d * p**k for d in ds for k in range(a + 1)]
    return sorted(ds)


def totient(n: int) -> int:
    """Euler's phi: the number of units mod n (1 for n = 1)."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def tau(n: int) -> int:
    """Number of divisors."""
    out = 1
    for _, a in factorize(n):
        out *= a + 1
    return out


@lru_cache(maxsize=64)  # read at prime exponents, all below 15 under groups.ORDER_CAP
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n as non-increasing tuples, in lexicographic order."""
    if n == 0:
        return ((),)

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))
