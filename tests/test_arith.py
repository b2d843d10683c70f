"""cycgraph.arith against trial division and math.gcd written here, and the
safety of its caches: every cached value is immutable and every cache bounded."""

from math import gcd, isqrt

import pytest

from cycgraph import arith
from cycgraph.arith import (
    coprime_mask,
    divisor_sieve,
    divisors,
    factorize,
    is_prime,
    prime_power,
)

N = range(1, 5001)


def trial_division(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def test_factorize():
    for n in N:
        assert list(factorize(n)) == trial_division(n), n


def test_factorize_refuses_below_one():
    for n in (0, -4):
        with pytest.raises(ValueError):
            factorize(n)


def test_is_prime_and_prime_power():
    for n in N:
        f = trial_division(n)
        assert is_prime(n) == (f == [(n, 1)]), n
        assert prime_power(n) == (f[0] if len(f) == 1 else None), n
    assert not is_prime(0) and not is_prime(-7) and prime_power(0) is None


def test_divisors_and_tau():
    for n in N:
        low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
        ds = sorted(set(low + [n // d for d in low]))
        assert divisors(n) == ds, n


@pytest.mark.parametrize("block", [7, arith.SIEVE_BLOCK])
def test_divisor_sieve(monkeypatch, block):
    # at 7 numbers a block, the run crosses 714 block boundaries
    monkeypatch.setattr(arith, "SIEVE_BLOCK", block)
    rows = list(divisor_sieve(1, 5001))
    assert [n for n, _, _ in rows] == list(N)
    for n, f, ds in rows:
        assert f == factorize(n), n
        assert ds == divisors(n)[1:-1], n
        assert isinstance(f, tuple) and all(isinstance(pa, tuple) for pa in f)
    # blocks are counted from the start: a run from elsewhere sees the same rows
    for start in (2, 4990):
        assert list(divisor_sieve(start, 5001)) == rows[start - 1:]


def test_divisor_sieve_bounds():
    assert list(divisor_sieve(10, 10)) == []
    assert list(divisor_sieve(1, 2)) == [(1, (), [])]
    for start in (0, -3):
        with pytest.raises(ValueError):
            list(divisor_sieve(start, 10))


def test_coprime_mask():
    for m in N:
        assert coprime_mask(m) == bytes(gcd(k, m) == 1 for k in range(m)), m


def test_cached_values_are_immutable():
    for n in (1, 2, 360, 4999):
        f = factorize(n)
        assert isinstance(f, tuple) and all(isinstance(pa, tuple) for pa in f)
        assert factorize(n) is f  # the shared value
        assert isinstance(coprime_mask(n), bytes)


def test_every_cache_is_bounded():
    caches = [v for v in vars(arith).values() if hasattr(v, "cache_info")]
    assert {factorize, coprime_mask} <= set(caches)
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache.__name__
