"""Small number-theoretic helpers (trial division scale)."""

from __future__ import annotations

from functools import lru_cache


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent), primes ascending."""
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
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, a) if n = p^a with a >= 1, else None."""
    f = factorize(n) if n >= 2 else []
    if len(f) == 1:
        return f[0]
    return None


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending."""
    ds = [1]
    for p, a in factorize(n):
        ds = [d * p**k for d in ds for k in range(a + 1)]
    return sorted(ds)


def tau(n: int) -> int:
    """Number of divisors."""
    out = 1
    for _, a in factorize(n):
        out *= a + 1
    return out


@lru_cache(maxsize=None)
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
