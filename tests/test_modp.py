import math
import random

import pytest

from sl2hyper.modp import (
    binom_mod_p,
    digits_base_p,
    factorial_mod_p,
    inv_mod_p,
    is_prime,
)


def falling_binom(z: int, k: int) -> int:
    # independent oracle: z(z-1)...(z-k+1)/k! in exact integer arithmetic
    num = 1
    for t in range(k):
        num *= z - t
    return num // math.factorial(k)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(121)


def test_inv_mod_p():
    for p in (2, 3, 5, 7, 11):
        for x in range(1, p):
            assert x * inv_mod_p(x, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        inv_mod_p(0, 5)


def test_binom_examples():
    assert binom_mod_p(7, 2, 5) == falling_binom(7, 2) % 5 == 1
    for n in (-17, -1, 0, 3, 100):
        assert binom_mod_p(n, 0, 7) == 1
    for k in range(12):
        assert binom_mod_p(-1, k, 5) == falling_binom(-1, k) % 5 == (-1) ** k % 5


def test_binom_negative_lower_is_zero():
    assert binom_mod_p(4, -1, 3) == 0
    assert binom_mod_p(-4, -2, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_factorization_exhaustive(p):
    # low digit in [0, p), high part in [0, p^2) keeps both arguments < p^3
    for m in range(p):
        for n in range(p):
            low = binom_mod_p(m, n, p)
            for mh in range(p * p):
                for nh in range(p * p):
                    lhs = binom_mod_p(m + mh * p, n + nh * p, p)
                    assert lhs == low * binom_mod_p(mh, nh, p) % p


@pytest.mark.parametrize("p, r", [(2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_kummer_carry_out_of_the_top_digit(p, r):
    # a, j < p^r with a + j >= p^r: adding them in base p carries out of the
    # top digit, so C(a + j, a) = 0 mod p (Kummer); HyperElem.__mul__ starts
    # its i-range past every such carry
    n = p**r
    for a in range(n):
        for j in range(n - a, n):
            assert binom_mod_p(a + j, a, p) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pascal_rule(p):
    for z in range(-50, 51):
        for k in range(1, 21):
            assert binom_mod_p(z, k, p) == (
                binom_mod_p(z - 1, k, p) + binom_mod_p(z - 1, k - 1, p)
            ) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_negative_upper_matches_integer_oracle(p):
    rng = random.Random(20240601)
    for _ in range(400):
        z = rng.randint(-30, 30)
        k = rng.randint(0, 30)
        assert binom_mod_p(z, k, p) == falling_binom(z, k) % p


def test_digits():
    assert digits_base_p(7, 5, 2) == [2, 1]
    assert digits_base_p(0, 3, 3) == [0, 0, 0]
    assert digits_base_p(26, 3, 3) == [2, 2, 2]
    with pytest.raises(ValueError):
        digits_base_p(27, 3, 3)


def test_factorial():
    for p in (2, 3, 5, 7, 11, 13):
        assert factorial_mod_p(p - 1, p) == p - 1  # Wilson
    assert factorial_mod_p(0, 7) == 1
    assert factorial_mod_p(3, 5) == 1
    with pytest.raises(ValueError):
        factorial_mod_p(5, 5)


@pytest.mark.parametrize("p, depth", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_periodicity_lemma(p, depth):
    # for k < p**s, C(z, k) mod p depends only on z mod p**s, for negative z too
    for s in range(1, depth + 1):
        ps = p**s
        for k in range(ps):
            row = [binom_mod_p(n, k, p) for n in range(ps)]
            assert [binom_mod_p(z, k, p) for z in range(-2 * ps, 2 * ps)] == row * 4
