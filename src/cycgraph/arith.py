"""Small number-theoretic helpers (trial division scale), and one segmented
sieve for runs of consecutive integers.

Sweeps meet the same integers over and over, so ``factorize`` and
``coprime_mask`` are cached: each cache is bounded by a constant and holds
immutable values (tuples, bytes) that no caller can change.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterator

#: distinct integers whose factorization is kept, for group orders and single Z(n) calls;
#: the Z(n) sweeps take each n's from ``factor_sieve``, so none depends on --max-n
FACTOR_CACHE_SIZE = 4096
#: numbers sieved at once by ``factor_sieve``: its memory is bounded by this, whatever the bound
SIEVE_BLOCK = 4096
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
    return sorted(exponent_divisors(factorize(n)))


def exponent_divisors(factors: tuple[tuple[int, int], ...]) -> list[int]:
    """All divisors of the n factored as ``factors``, in exponent order: by the tuple
    (e_1, ..., e_k) of d = p_1^e_1 ... p_k^e_k, lexicographically, so 1 first and n last;
    d's place depends only on its exponents and n's exponent signature (a_1, ..., a_k)."""
    ds = [1]
    for p, a in factors:
        ds = [d * p**k for d in ds for k in range(a + 1)]
    return ds


def totient(n: int) -> int:
    """Euler's phi: the number of units mod n (1 for n = 1)."""
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
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


def factor_sieve(start: int, stop: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """(n, factorization) for start <= n < stop, n ascending.

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977) walks the
    range in blocks of ``SIEVE_BLOCK`` numbers.  In a block [lo, hi), each base
    prime p <= sqrt(hi - 1) is divided out of its multiples, in ascending order,
    and what is left over is 1 or one last prime.  The base primes are extended
    as the blocks go up, only to the square root of the current block's last
    number.  The factorization has the shape of ``factorize``'s.
    """
    if start < 1:
        raise ValueError(f"cannot sieve from {start}")
    primes: list[int] = []
    for lo in range(start, stop, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, stop)
        for k in range(primes[-1] + 1 if primes else 2, isqrt(hi - 1) + 1):
            if all(k % p for p in primes if p * p <= k):
                primes.append(k)
        left = list(range(lo, hi))
        factors: list[list[tuple[int, int]]] = [[] for _ in left]
        for p in primes:
            for i in range(-lo % p, hi - lo, p):
                m, e = left[i] // p, 1
                while m % p == 0:
                    m //= p
                    e += 1
                left[i] = m
                factors[i].append((p, e))
        for n, last, f in zip(range(lo, hi), left, factors):
            if last > 1:
                f.append((last, 1))
            yield n, tuple(f)
