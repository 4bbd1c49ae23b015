import random

import pytest

from sl2hyper.fpoly import (
    Poly,
    from_roots,
    min_power_by_division,
    selector_poly,
    selector_poly_shifted,
    squares_poly,
    to_yx_power_basis,
    yx_power_poly,
)
from sl2hyper.idempotents import all_pairs, min_yx_power
from sl2hyper.modp import inv_mod_p


def test_ring_op_examples():
    p5 = Poly((1, 0, 1), 5)  # x^2 + 1
    assert p5(2) == 0
    q, r = divmod(Poly((0, 0, 1), 7), Poly((0, 1), 7))
    assert q == Poly((0, 1), 7) and r == Poly.zero(7)
    prod = Poly((-1, 1), 3) * Poly((-2, 1), 3)
    assert prod == Poly((2, 0, 1), 3)  # x^2 + 2 over F_3


def test_divmod_reconstruction():
    rng = random.Random(20240601)
    for p in (2, 3, 5, 13):
        for _ in range(60):
            a = Poly([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
            b = Poly([rng.randrange(p) for _ in range(rng.randint(1, 5))], p)
            if not b:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1,), 3), Poly.zero(3))


def test_eval_matches_coefficients():
    rng = random.Random(7)
    for p in (3, 7):
        for _ in range(40):
            f = Poly([rng.randrange(p) for _ in range(6)], p)
            x = rng.randrange(p)
            assert f(x) == sum(c * x**k for k, c in enumerate(f.coeffs)) % p


def test_shifted_arg():
    f = Poly((0, 0, 1), 5)  # x^2
    g = f.shifted_arg(3)  # (x+3)^2 = x^2 + 6x + 9
    assert g == Poly((4, 1, 1), 5)
    rng = random.Random(11)
    for _ in range(20):
        f = Poly([rng.randrange(7) for _ in range(5)], 7)
        c, x = rng.randrange(7), rng.randrange(7)
        assert f.shifted_arg(c)(x) == f((x + c) % 7)


def test_step_product_examples():
    assert yx_power_poly(2, 0, 5) == Poly.one(5)
    assert yx_power_poly(0, 2, 5) == Poly((0, 3, 1), 5)  # x(x-2) = x^2 + 3x
    assert yx_power_poly(1, 1, 3) == Poly.x(3)


def test_squares_poly():
    # squares in F_3 are {0, 1, 1}: x(x-1)^2 = x^3 + x^2 + x mod 3
    assert squares_poly(3) == Poly((0, 1, 1, 1), 3)
    with pytest.raises(ValueError):
        squares_poly(2)


def test_selector_examples():
    assert selector_poly(0, 3) == from_roots([1, 1], 3)  # (x-1)^2
    assert selector_poly(1, 3) == Poly((0, 2, 2), 3)  # 2x(x+1)
    with pytest.raises(ValueError):
        selector_poly(2, 3)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_selector_partition_of_unity(p):
    sels = [selector_poly(j, p) for j in range((p + 1) // 2)]
    total = Poly.zero(p)
    for s in sels:
        total = total + s
    assert total == Poly.one(p)
    van = squares_poly(p)
    for m, sm in enumerate(sels):
        for n, sn in enumerate(sels):
            want = sm if m == n else Poly.zero(p)
            assert (sm * sn - want) % van == Poly.zero(p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_squares_shift_identity(p):
    half = inv_mod_p(2, p)
    van = squares_poly(p)
    for a in range(p):
        c = ((a + 1) * half) ** 2 % p
        assert van.shifted_arg(c) == yx_power_poly(a, p, p)


def test_to_yx_power_basis_unit_vectors():
    for p in (3, 5, 7):
        for a in range(p):
            assert to_yx_power_basis(Poly.one(p), a) == (1,) + (0,) * (p - 1)
            for k in range(p):
                expect = tuple(1 if m == k else 0 for m in range(p))
                assert to_yx_power_basis(yx_power_poly(a, k, p), a) == expect


def test_to_yx_power_basis_reconstructs():
    # the oracle rebuilds each basis element from its roots (yx_power_poly)
    rng = random.Random(20240601)
    for p in (3, 5, 7, 31):
        for _ in range(30):
            f = Poly([rng.randrange(p) for _ in range(p)], p)
            a = rng.randrange(p)
            c = to_yx_power_basis(f, a)
            total = Poly.zero(p)
            for m, cm in enumerate(c):
                total = total + cm * yx_power_poly(a, m, p)
            assert total == f


def test_min_power_examples():
    assert min_power_by_division(0, 1, 3) == 0
    assert min_power_by_division(0, 0, 3) == 1
    assert min_power_by_division(2, 2, 5) == 3


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_min_power_matches_closed_forms(p):
    for pr in all_pairs(p):
        assert min_power_by_division(pr.a, pr.two_j // 2, p) == min_yx_power(pr, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_shifted_selector_leading_coefficient(p):
    # the coefficient at the minimal index is nonzero for every pair
    for pr in all_pairs(p):
        c = to_yx_power_basis(selector_poly_shifted(pr.a, pr.two_j // 2, p), pr.a)
        n = min_yx_power(pr, p)
        assert c[n] != 0
        assert all(cm == 0 for cm in c[:n])
