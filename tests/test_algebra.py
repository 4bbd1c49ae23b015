import functools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2hyper import algebra
from sl2hyper.algebra import (
    AlgebraCtx,
    HyperElem,
    coeffs_to_weightfn,
    degree_decompose,
    element_from_json,
    element_to_json,
    embed,
    format_element,
    fr,
    fr_prime,
    from_weight_coords,
    gen_h_binom,
    gen_x,
    gen_y,
    left_weight,
    one,
    pbw_elem,
    products,
    shift_weightfn,
    weight_coords,
    weightfn_to_coeffs,
    zero,
)
from sl2hyper.idempotents import enumerate_labels, tuple_idempotent, weight_projector
from sl2hyper.modp import binom_mod_p
from sl2hyper.pims import weight_of_idempotent, weyl_action

SEED = 20240601


def rand_elem(rng, ctx, nterms=3):
    out = zero(ctx)
    for _ in range(nterms):
        m, mp = rng.randrange(ctx.xy_range), rng.randrange(ctx.xy_range)
        n = rng.randrange(ctx.q)
        out = out + rng.randrange(1, ctx.p) * pbw_elem(m, n, mp, ctx)
    return out


def test_ctx_validation():
    with pytest.raises(ValueError):
        AlgebraCtx(4, 1, 1)
    with pytest.raises(ValueError):
        AlgebraCtx(3, 2, 1)
    with pytest.raises(ValueError):
        AlgebraCtx(3, 0, 1)
    assert AlgebraCtx(2, 1, 12).q == 4096
    for args in [(2, 1, 13), (4099, 1, 1), (3, 1, 10**9)]:
        with pytest.raises(ValueError, match="4096"):
            AlgebraCtx(*args)


def test_constructors():
    ctx = AlgebraCtx(3, 1, 1)
    assert gen_h_binom(1, ctx).terms[(0, 0)].tolist() == [0, 1, 2]
    assert gen_h_binom(0, ctx) == one(ctx)
    assert gen_x(1, ctx).terms == {(0, 1): pytest.approx(gen_x(1, ctx).terms[(0, 1)])}
    assert gen_x(1, ctx).terms[(0, 1)].tolist() == [1, 1, 1]
    with pytest.raises(ValueError):
        gen_x(3, ctx)
    with pytest.raises(ValueError):
        gen_h_binom(3, ctx)


def test_shift_weightfn():
    ctx = AlgebraCtx(3, 1, 1)
    ones = np.ones(3, dtype=np.int64)
    assert shift_weightfn(ones, 5, ctx).tolist() == [1, 1, 1]
    f = gen_h_binom(1, ctx).terms[(0, 0)]
    assert shift_weightfn(f, 2, ctx).tolist() == [2, 0, 1]
    rng = random.Random(SEED)
    for _ in range(20):
        g = np.array([rng.randrange(3) for _ in range(3)], dtype=np.int64)
        s = rng.randrange(-7, 8)
        assert np.array_equal(shift_weightfn(shift_weightfn(g, s, ctx), -s, ctx), g)


def test_pascal_table_is_read_only():
    # the table is cached per (p, p**r) and shared: a write into it would
    # change every later gen_h_binom and product in that context (p = 11 is
    # used by no other test, so a writeable table cannot leak into them)
    ctx = AlgebraCtx(11, 1, 1)
    pas = ctx.pascal
    with pytest.raises(ValueError):
        pas[:, 1] = 0
    with pytest.raises(ValueError):
        pas.setflags(write=True)
    with pytest.raises(ValueError):
        pas[:, 1].setflags(write=True)
    assert gen_h_binom(1, ctx).terms[(0, 0)].tolist() == list(range(11))


def test_zero_is_shared():
    # one zero per context: zero(ctx) and every empty product, both one whose
    # (pair, i) rows are all zero and one with no (pair, i) row
    ctx = AlgebraCtx(3, 1, 2)
    z = zero(ctx)
    assert z is zero(ctx) and z is zero(AlgebraCtx(3, 1, 2))
    assert z == HyperElem(ctx, {}) and z.is_zero()
    assert zero(AlgebraCtx(3, 2, 2)) is not z
    with pytest.raises(TypeError):
        zero(ctx=ctx)
    mu0 = HyperElem(ctx, {(0, 0): np.eye(ctx.q, dtype=np.int64)[0]})
    mu1 = HyperElem(ctx, {(0, 0): np.eye(ctx.q, dtype=np.int64)[1]})
    # disjoint supports: the kernel forms one zero row, which is dropped
    assert mu0 * mu1 is z
    # X^(1) X^(2) = C(3, 1) X^(3): the Kummer bound leaves no i
    assert gen_x(1, ctx) * gen_x(2, ctx) is z
    assert (z * one(ctx)) is z and (one(ctx) * z) is z
    with pytest.raises(ValueError):
        z._block.setflags(write=True)
    with pytest.raises(TypeError):
        z.terms[(0, 0)] = np.ones(ctx.q, dtype=np.int64)
    assert z.terms == {} and z._block.shape == (0, ctx.q)


def test_multiply_cross_example():
    # X^(1) Y^(1) = Y^(1) X^(1) + C(H, 1) in any context
    for ctx in (AlgebraCtx(3, 1, 1), AlgebraCtx(5, 2, 2), AlgebraCtx(2, 1, 2)):
        u = gen_x(1, ctx) * gen_y(1, ctx)
        assert set(u.terms) == {(0, 0), (1, 1)}
        assert u.terms[(1, 1)].tolist() == [1] * ctx.q
        assert u.terms[(0, 0)].tolist() == [w % ctx.p for w in range(ctx.q)]


def test_multiply_identity_and_linearity():
    rng = random.Random(SEED)
    ctx = AlgebraCtx(3, 1, 2)
    for _ in range(10):
        u = rand_elem(rng, ctx)
        assert u * one(ctx) == u
        assert one(ctx) * u == u
        v, w = rand_elem(rng, ctx), rand_elem(rng, ctx)
        assert u * (v + w) == u * v + u * w


def test_multiply_against_weyl_oracle():
    # a divided-power product checked on the highest-weight-2 module
    ctx = AlgebraCtx(3, 1, 1)
    u, v = gen_x(2, ctx), gen_y(2, ctx)
    lhs = weyl_action(u * v, 2)
    rhs = weyl_action(u, 2) @ weyl_action(v, 2) % 3
    assert np.array_equal(lhs, rhs)
    rng = random.Random(SEED)
    for ctx in (AlgebraCtx(2, 2, 2), AlgebraCtx(3, 1, 2), AlgebraCtx(5, 1, 1)):
        for lam in range(2 * ctx.xy_range - 1):
            a, b = rand_elem(rng, ctx), rand_elem(rng, ctx)
            assert np.array_equal(
                weyl_action(a * b, lam),
                weyl_action(a, lam) @ weyl_action(b, lam) % ctx.p,
            )


@functools.cache
def binom_column(p, q, i):
    # C(w, i) mod p for w < q, from modp rather than the Pascal table
    return np.array([binom_mod_p(w, i, p) for w in range(q)], dtype=np.int64)


def product_per_pair(u, v):
    # the term-pair loop without the Kummer bound or the batching: every
    # pair forms h with np.roll and is dropped when h is zero (a test the
    # kernel does not make), every i from 0 is visited, and every (pair, i)
    # contribution is added into its key on its own; all binomials come
    # from modp.binom_mod_p, not from the table the kernel reads
    ctx = u.ctx
    p, q, nmax = ctx.p, ctx.q, ctx.xy_range
    acc = {}
    for (m1, m1p), f1 in u.terms.items():
        for (m2, m2p), f2 in v.terms.items():
            # h(w) = f1(w - 2m2) f2(w - 2m1'), widened from the int16 storage
            h = np.roll(f1.astype(np.int64), 2 * m2) * np.roll(f2, 2 * m1p) % p
            if not h.any():
                continue
            for i in range(min(m1p, m2) + 1):
                mm, mmp = m1 + m2 - i, m1p + m2p - i
                k = binom_mod_p(mm, m1, p) * binom_mod_p(mmp, m2p, p) % p
                if mm >= nmax or mmp >= nmax:
                    # a base-p carry out of the top digit: Kummer makes k vanish
                    assert k == 0
                    continue
                if k == 0:
                    continue
                # mid(w) = h(w + 2i) C(w - c, i) k
                c = m1p + m2 - 2 * i
                mid = np.roll(h, -2 * i) * np.roll(binom_column(p, q, i), c) % p * k
                acc[(mm, mmp)] = acc[(mm, mmp)] + mid if (mm, mmp) in acc else mid
    return HyperElem(ctx, acc)


@st.composite
def sparse_elem(draw, ctx):
    p, q, nmax = ctx.p, ctx.q, ctx.xy_range
    # exponents with 2m = 0 mod q make a shift of the torus support vanish
    exps = st.one_of(
        st.sampled_from([m for m in range(nmax) if 2 * m % q == 0]),
        st.integers(0, nmax - 1),
    )
    # a few scattered weights, or one run of weights (wrapping around), so
    # that term pairs with disjoint and with overlapping supports both occur
    scattered = st.lists(st.integers(0, q - 1), min_size=1, max_size=3)
    run = st.builds(
        lambda a, n: [(a + j) % q for j in range(n)], st.integers(0, q - 1), st.integers(1, q)
    )
    # up to ten terms, so that products have many (pair, i) contributions,
    # output keys reached from several pairs, and base-p carries
    terms = {}
    for _ in range(draw(st.integers(0, 10))):
        vec = np.zeros(q, dtype=np.int64)
        for w in draw(st.one_of(scattered, run)):
            vec[w] = draw(st.integers(1, p - 1))
        terms[(draw(exps), draw(exps))] = vec
    return HyperElem(ctx, terms)


# the batched kernel against the per-pair product on sparse draws, which hold
# many term pairs with disjoint supports, whose zero rows the kernel forms and
# drops; (2,1,7) has q = 128, the widest rows drawn here.  A bound of 1 runs
# the gathers one contribution at a time and 40 a few at a time, so one
# pair's contributions span many chunks of one pass.
@pytest.mark.parametrize(
    "p, r, rprime, bound",
    [
        pytest.param(p, r, rprime, bound, id=f"{p}-{r}-{rprime}" + (f"-bound{bound}" if bound else ""))
        for bound in (None, 1, 40)
        for p, r, rprime in [(2, 1, 1), (2, 3, 3), (3, 2, 3), (3, 3, 3), (5, 2, 2), (7, 1, 2), (2, 1, 7)]
    ],
)
def test_kernel_matches_per_pair_products(p, r, rprime, bound, monkeypatch):
    ctx = AlgebraCtx(p, r, rprime)
    examples = 150
    if bound is not None:
        monkeypatch.setattr(algebra, "PASS_ENTRIES", bound)
        examples = 40  # these cases test the chunking, not the arithmetic

    @settings(derandomize=True, max_examples=examples, deadline=None, database=None)
    @given(sparse_elem(ctx), sparse_elem(ctx))
    def check(u, v):
        assert u * v == product_per_pair(u, v)

    check()


# `products` against one `*` per pair: lists that repeat an element (the
# same object in several pairs), zero operands and zero results, and the
# empty list.  A bound of 1 ends a pass after every pair, and 40 entries
# ends one after a few, so pass boundaries fall between drawn pairs.
@pytest.mark.parametrize("bound", [None, 1, 40])
@pytest.mark.parametrize("p, r, rprime", [(2, 1, 1), (3, 2, 2), (5, 2, 2), (2, 1, 7)])
def test_products_match_one_pair_products(p, r, rprime, bound, monkeypatch):
    ctx = AlgebraCtx(p, r, rprime)
    if bound is not None:
        monkeypatch.setattr(algebra, "PASS_ENTRIES", bound)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(st.lists(sparse_elem(ctx), min_size=1, max_size=4), st.data())
    def check(elems, data):
        elems.append(zero(ctx))
        at = st.integers(0, len(elems) - 1)
        pairs = [(elems[a], elems[b]) for a, b in data.draw(st.lists(st.tuples(at, at), max_size=8))]
        got = products(pairs)
        assert got == [u * v for u, v in pairs]
        for w in got:
            assert_finished(w)

    check()


def test_products_edge_cases():
    ctx = AlgebraCtx(3, 2, 2)
    x, y = gen_x(1, ctx), gen_y(1, ctx)
    mu0, mu1 = weight_projector(0, 2, ctx), weight_projector(1, 2, ctx)
    assert products([]) == []
    # a generator of pairs; zero results: disjoint supports, and a carry
    out = products((u, v) for u, v in [(x, y), (mu0, mu1), (gen_x(3, ctx), gen_x(6, ctx)), (x, y)])
    assert out[1] is zero(ctx) and out[2] is zero(ctx)
    assert out[0] == x * y == out[3] and not out[0].is_zero()
    other = AlgebraCtx(3, 2, 3)
    for pairs in ([(x, gen_x(1, other))], [(x, y), (gen_y(1, other), x)]):
        with pytest.raises(ValueError, match="context mismatch"):
            products(pairs)
    with pytest.raises(ValueError, match="context mismatch"):
        x * gen_x(1, other)
    with pytest.raises(TypeError):
        products([(x, 2)])


def tau(u):
    # the anti-involution Y^(m) f X^(m') -> Y^(m') f X^(m): swap each key
    return HyperElem(u.ctx, {(mp, m): f for (m, mp), f in u.terms.items()})


@pytest.mark.parametrize(
    "p, r, rprime",
    [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 1, 2)],
)
def test_anti_involution_reverses_products(p, r, rprime):
    # the kernel respects the anti-automorphism of Dist(G) that swaps X and
    # Y and fixes the torus (Jantzen, II.1): tau(uv) = tau(v) tau(u)
    ctx = AlgebraCtx(p, r, rprime)
    rng = random.Random(SEED + 100 * p + 10 * r + rprime)
    for _ in range(40):
        u, v = rand_elem(rng, ctx), rand_elem(rng, ctx)
        assert tau(u * v) == tau(v) * tau(u)


def idempotents_by_weight(ctx):
    es = [tuple_idempotent(lb, ctx) for lb in enumerate_labels(ctx)]
    return es, [weight_of_idempotent(e) for e in es]


def test_kernel_matches_per_pair_products_on_idempotents():
    # real operands: e_i e_j for same-weight pairs has many (pair, i)
    # contributions per output key; in other pairs every contribution is a
    # zero row, since the weights' supports are disjoint
    es, ws = idempotents_by_weight(AlgebraCtx(3, 2, 2))
    same = [(a, b) for a in range(len(es)) for b in range(len(es)) if ws[a] == ws[b]]
    assert len(same) == 144
    for a, b in same:
        assert es[a] * es[b] == product_per_pair(es[a], es[b])
    es, ws = idempotents_by_weight(AlgebraCtx(3, 2, 3))
    pairs = [(a, b) for a in range(len(es)) for b in range(len(es))]
    rng = random.Random(SEED)
    same = rng.sample([ab for ab in pairs if ws[ab[0]] == ws[ab[1]]], 100)
    other = rng.sample([ab for ab in pairs if ws[ab[0]] != ws[ab[1]]], 200)
    for a, b in same + other:
        assert es[a] * es[b] == product_per_pair(es[a], es[b])


def test_degree_decompose():
    ctx = AlgebraCtx(3, 1, 1)
    assert list(degree_decompose(gen_x(1, ctx))) == [1]
    assert list(degree_decompose(gen_x(1, ctx) * gen_y(1, ctx))) == [0]
    assert degree_decompose(zero(ctx)) == {}
    rng = random.Random(SEED)
    for _ in range(10):
        u = rand_elem(rng, AlgebraCtx(3, 2, 2), 4)
        total = zero(u.ctx)
        for part in degree_decompose(u).values():
            total = total + part
        assert total == u


def test_degree_additivity():
    rng = random.Random(SEED)
    ctx = AlgebraCtx(3, 2, 2)
    for _ in range(40):
        m1, m1p = rng.randrange(9), rng.randrange(9)
        m2, m2p = rng.randrange(9), rng.randrange(9)
        u = pbw_elem(m1, rng.randrange(9), m1p, ctx)
        v = pbw_elem(m2, rng.randrange(9), m2p, ctx)
        w = u * v
        d = (m1p - m1) + (m2p - m2)
        assert all(mp - m == d for (m, mp) in w.terms)


def test_left_weight_reads_supports():
    # oracle: the explicit product mu_nu e = e with the depth-rprime projector
    ctx = AlgebraCtx(3, 1, 2)
    mu = weight_projector(4, 2, ctx)
    e = mu * (one(ctx) + 2 * gen_y(1, ctx) * gen_x(1, ctx) + gen_x(2, ctx))
    nu, c = left_weight(e)
    assert nu == 4 and mu * e == e
    assert c.tolist() == [int(f[(nu + 2 * m) % ctx.q]) for (m, _), f in e.terms.items()]
    with pytest.raises(ValueError, match="is zero"):
        left_weight(zero(ctx))
    # a later term supported off its weight (8), alone or beside it
    last = (2, 2)
    assert max(e.terms) < last
    for support in ([4], [4, 8], [8, 0]):
        f = np.zeros(ctx.q, dtype=np.int64)
        f[support] = 1
        off = HyperElem(ctx, {**e.terms, last: f})
        assert mu * off != off
        with pytest.raises(ValueError, match="weight vector"):
            left_weight(off)
    f = np.zeros(ctx.q, dtype=np.int64)
    f[8] = 2
    assert left_weight(HyperElem(ctx, {**e.terms, last: f}))[0] == 4
    # a degree-1 term: a weight vector, but not an element of B_nu
    assert left_weight(mu * gen_x(1, ctx))[0] == 4
    with pytest.raises(ValueError, match="has a term of degree 1"):
        weight_coords(mu * gen_x(1, ctx))
    with pytest.raises(ValueError, match="has a term of degree 1"):
        weight_coords(mu * (one(ctx) + gen_x(1, ctx)))


def test_weightfn_conversions():
    ctx = AlgebraCtx(3, 1, 1)
    mu0 = np.array([1, 0, 0], dtype=np.int64)
    assert weightfn_to_coeffs(mu0, ctx).tolist() == [1, 2, 1]
    assert coeffs_to_weightfn(np.array([1, 2, 1]), ctx).tolist() == [1, 0, 0]
    const = np.ones(3, dtype=np.int64)
    assert weightfn_to_coeffs(const, ctx).tolist() == [1, 0, 0]
    rng = random.Random(SEED)
    for ctx in (AlgebraCtx(3, 1, 2), AlgebraCtx(5, 1, 1), AlgebraCtx(2, 2, 3)):
        for _ in range(20):
            f = np.array([rng.randrange(ctx.p) for _ in range(ctx.q)], dtype=np.int64)
            assert np.array_equal(coeffs_to_weightfn(weightfn_to_coeffs(f, ctx), ctx), f)


def test_weightfn_to_coeffs_on_a_block():
    # a (k, q) block converts row by row, entries outside 0..p-1 included
    rng = np.random.default_rng(SEED)
    for ctx in (AlgebraCtx(2, 1, 1), AlgebraCtx(3, 2, 2), AlgebraCtx(5, 1, 2), AlgebraCtx(2, 1, 7)):
        for k in (0, 1, 5):
            block = rng.integers(-2 * ctx.p, 2 * ctx.p, size=(k, ctx.q))
            got = weightfn_to_coeffs(block, ctx)
            assert got.shape == (k, ctx.q)
            assert got.tolist() == [weightfn_to_coeffs(f, ctx).tolist() for f in block]


@functools.lru_cache(maxsize=None)
def reference_pascal(p, q):
    # the q x q Pascal matrix mod p by the q-step recurrence
    # C(w, n) = C(w - 1, n) + C(w - 1, n - 1): the oracle of the Lucas route
    out = np.zeros((q, q), dtype=np.int64)
    out[:, 0] = 1
    for w in range(1, q):
        out[w, 1:] = (out[w - 1, 1:] + out[w - 1, :-1]) % p
    return out


# rprime > r, p = 2 and r = rprime all occur
LUCAS_CTXS = [(2, 1, 5), (2, 3, 4), (3, 1, 4), (3, 2, 3), (5, 1, 2), (7, 2, 2)]


@pytest.mark.parametrize("args", LUCAS_CTXS)
def test_pascal_table_is_the_reference_corner(args):
    ctx = AlgebraCtx(*args)
    n, ref = ctx.xy_range, reference_pascal(ctx.p, ctx.q)
    assert ctx.pascal.shape == (n, n)
    assert np.array_equal(ctx.pascal, ref[:n, :n])
    # periodicity lemma: rows w and w + p**r agree on every column below p**r
    assert np.array_equal(ref[n:, :n], ref[:-n, :n])


@pytest.mark.parametrize("args", LUCAS_CTXS)
def test_conversions_match_the_reference(args):
    # c = D C D f and f = C c, with the q x q reference C and D = diag((-1)^w),
    # on a vector and on a block, entries outside 0..p-1 included
    ctx = AlgebraCtx(*args)
    p, q, ref = ctx.p, ctx.q, reference_pascal(ctx.p, ctx.q)
    sign = (-1) ** np.arange(q)
    rng = np.random.default_rng(SEED)
    for f in (rng.integers(-2 * p, 2 * p, size=q), rng.integers(-2 * p, 2 * p, size=(5, q))):
        want = [sign * (ref @ (sign * row)) % p for row in f.reshape(-1, q)]
        assert np.array_equal(weightfn_to_coeffs(f, ctx), np.reshape(want, f.shape))
        want = [ref @ row % p for row in f.reshape(-1, q)]
        assert np.array_equal(coeffs_to_weightfn(f, ctx), np.reshape(want, f.shape))


@pytest.mark.parametrize("args", LUCAS_CTXS)
def test_binomial_columns_match_the_reference(args):
    ctx = AlgebraCtx(*args)
    ref = reference_pascal(ctx.p, ctx.q)
    rng = random.Random(SEED)
    for n in range(ctx.q):
        assert np.array_equal(gen_h_binom(n, ctx).terms[(0, 0)], ref[:, n])
        m, mp = rng.randrange(ctx.xy_range), rng.randrange(ctx.xy_range)
        u = pbw_elem(m, n, mp, ctx)
        assert list(u.terms) == [(m, mp)] and np.array_equal(u.terms[(m, mp)], ref[:, n])


def test_conversions_check_the_length():
    for ctx in (AlgebraCtx(3, 1, 2), AlgebraCtx(2, 1, 5)):
        q = ctx.q
        for length in (q - 1, q + ctx.p, 2 * q):
            for f in (np.ones(length, dtype=np.int64), np.ones((3, length), dtype=np.int64)):
                with pytest.raises(ValueError, match=f"weight function must have length {q}"):
                    weightfn_to_coeffs(f, ctx)
                with pytest.raises(ValueError, match=f"coefficient vector must have length {q}"):
                    coeffs_to_weightfn(f, ctx)


def test_conversions_build_no_q_squared_table():
    # a q x q int64 table would take 32 MiB at q = 2048; the conversions and
    # pbw_elem need only q-wide rows.  No other test uses p = 2 with
    # rprime = 11, so nothing of this context is cached beforehand.
    ctx = AlgebraCtx(2, 1, 11)
    q = ctx.q
    block = np.random.default_rng(SEED).integers(0, 2, size=(4, q))
    tracemalloc.start()
    try:
        coeffs = weightfn_to_coeffs(block, ctx)
        back = coeffs_to_weightfn(coeffs, ctx)
        vec = coeffs_to_weightfn(coeffs[1], ctx)
        top = pbw_elem(0, q - 1, 0, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.array_equal(back, block) and np.array_equal(vec, block[1])
    # C(w, q - 1) mod 2 is 1 at w = q - 1 alone
    assert np.flatnonzero(top.terms[(0, 0)]).tolist() == [q - 1]


def test_torus_commutation_contract():
    # C(H, n) X^(m) = X^(m) shift(C(H, n), 2m) and the Y twin
    rng = random.Random(SEED)
    for ctx in (AlgebraCtx(3, 1, 2), AlgebraCtx(5, 1, 1)):
        for _ in range(20):
            n, m = rng.randrange(ctx.q), rng.randrange(ctx.xy_range)
            h = gen_h_binom(n, ctx)
            hvec = h.terms[(0, 0)]
            shifted_x = HyperElem(ctx, {(0, 0): shift_weightfn(hvec, 2 * m, ctx)})
            assert h * gen_x(m, ctx) == gen_x(m, ctx) * shifted_x
            shifted_y = HyperElem(ctx, {(0, 0): shift_weightfn(hvec, -2 * m, ctx)})
            assert h * gen_y(m, ctx) == gen_y(m, ctx) * shifted_y


def test_frobenius_map():
    ctx = AlgebraCtx(3, 2, 2)
    tgt = AlgebraCtx(3, 1, 1)
    assert fr(gen_x(3, ctx)) == gen_x(1, tgt)
    assert fr(gen_x(1, ctx)).is_zero()
    assert fr(gen_h_binom(3, ctx)) == gen_h_binom(1, tgt)
    assert fr(gen_h_binom(1, ctx)).is_zero()
    with pytest.raises(ValueError):
        fr(one(AlgebraCtx(3, 1, 1)))


def test_frobenius_splitting():
    src = AlgebraCtx(3, 1, 1)
    assert fr_prime(pbw_elem(1, 1, 2, src)) == pbw_elem(3, 3, 6, AlgebraCtx(3, 2, 2))
    assert fr_prime(one(src)) == one(AlgebraCtx(3, 2, 2))
    for ctx in (AlgebraCtx(2, 2, 2), AlgebraCtx(3, 1, 2)):
        for m in range(ctx.xy_range):
            for mp in range(ctx.xy_range):
                for n in range(ctx.q):
                    u = pbw_elem(m, n, mp, ctx)
                    assert fr(fr_prime(u)) == u


def test_embed():
    src = AlgebraCtx(3, 1, 1)
    tgt = AlgebraCtx(3, 2, 2)
    assert embed(one(src), tgt) == one(tgt)
    assert embed(gen_h_binom(2, src), tgt) == gen_h_binom(2, tgt)
    rng = random.Random(SEED)
    for _ in range(20):
        u, v = rand_elem(rng, src, 2), rand_elem(rng, src, 2)
        assert embed(u * v, tgt) == embed(u, tgt) * embed(v, tgt)
    with pytest.raises(ValueError):
        embed(one(tgt), src)


def test_associativity_sampled():
    rng = random.Random(SEED)
    for p, r, rp in [(2, 2, 2), (3, 1, 2), (5, 1, 1)]:
        ctx = AlgebraCtx(p, r, rp)
        for _ in range(40):
            u, v, w = (rand_elem(rng, ctx, 2) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_commuting_yx_family():
    # products Y^(p^s) X^(p^s) commute with each other and the torus binomials
    for p, r, rp in [(2, 2, 2), (3, 2, 2), (5, 1, 1)]:
        ctx = AlgebraCtx(p, r, rp)
        prods = [gen_y(p**s, ctx) * gen_x(p**s, ctx) for s in range(r)]
        for us in prods:
            for ut in prods:
                assert us * ut == ut * us
            for n in range(ctx.q):
                h = gen_h_binom(n, ctx)
                assert us * h == h * us


def test_p_divided_powers_centralize():
    for p in (2, 3, 5):
        ctx = AlgebraCtx(p, 2, 2)
        a1_gens = [gen_h_binom(k, ctx) for k in range(p)]
        a1_gens.append(gen_y(1, ctx) * gen_x(1, ctx))
        for n in range(1, p):
            for u in (gen_x(n * p, ctx), gen_y(n * p, ctx)):
                for a in a1_gens:
                    assert u * a == a * u


def test_json_round_trip():
    rng = random.Random(SEED)
    for ctx in (AlgebraCtx(2, 1, 2), AlgebraCtx(3, 2, 2)):
        for _ in range(10):
            u = rand_elem(rng, ctx, 3)
            d = element_to_json(u)
            blob = json.dumps(d, sort_keys=True)
            assert element_from_json(json.loads(blob)) == u
    d = element_to_json(one(AlgebraCtx(2, 1, 1)))
    d["terms"].append(dict(d["terms"][0]))
    with pytest.raises(ValueError):
        element_from_json(d)
    # exponents, context sizes and weight-function entries must be real ints
    good = {"p": 2, "r": 1, "rprime": 1, "terms": [{"yexp": 1, "xexp": 1, "h_eval": [0, 1]}]}
    assert element_from_json(good) == pbw_elem(1, 1, 1, AlgebraCtx(2, 1, 1))
    for bad in (1.7, True, "1", None):
        for key in ("p", "r", "rprime"):
            with pytest.raises(ValueError):
                element_from_json({**good, key: bad})
        for key in ("yexp", "xexp"):
            with pytest.raises(ValueError):
                element_from_json({**good, "terms": [{**good["terms"][0], key: bad}]})
        with pytest.raises(ValueError):
            element_from_json({**good, "terms": [{**good["terms"][0], "h_eval": [0, bad]}]})
    with pytest.raises(ValueError):
        element_from_json({**good, "terms": [{**good["terms"][0], "h_eval": "01"}]})
    # malformed structure: a missing field, a non-list terms, a non-object
    # term or document is a ValueError that names the field
    for key in ("p", "r", "rprime", "terms"):
        doc = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"element has no field '{key}'"):
            element_from_json(doc)
    for key in ("yexp", "xexp", "h_eval"):
        term = {k: v for k, v in good["terms"][0].items() if k != key}
        with pytest.raises(ValueError, match=f"term has no field '{key}'"):
            element_from_json({**good, "terms": [term]})
    for bad in ({"yexp": 1}, "terms", 3, None):
        with pytest.raises(ValueError, match="terms must be a list"):
            element_from_json({**good, "terms": bad})
    for bad in ([1, 1, [0, 1]], "term", 7, None):
        with pytest.raises(ValueError, match="term must be a JSON object"):
            element_from_json({**good, "terms": [bad]})
    for bad in ([good], "{}", 2, None):
        with pytest.raises(ValueError, match="element must be a JSON object"):
            element_from_json(bad)


def test_format_element():
    ctx = AlgebraCtx(2, 1, 1)
    assert format_element(zero(ctx)) == "0"
    assert format_element(one(ctx)) == "1"
    u = gen_y(1, ctx) * gen_h_binom(1, ctx) * gen_x(1, ctx)
    assert format_element(u) == "Y^(1) C(H,1) X^(1)"


def test_format_element_memo():
    # a shared memo gives the same text and holds each distinct factor once
    ctx = AlgebraCtx(3, 2, 2)
    es = [tuple_idempotent(lb, ctx) for lb in enumerate_labels(ctx)]
    memo = {}
    assert [format_element(e, memo) for e in es] == [format_element(e) for e in es]
    distinct = {f.tobytes() for e in es for f in e.terms.values()}
    assert set(memo) == distinct and len(distinct) < sum(len(e.terms) for e in es)


def test_canon_checks_masks_and_order():
    ctx = AlgebraCtx(3, 1, 2)
    q = ctx.q
    good = np.arange(q, dtype=np.int64)
    # the first bad key in sorted order is the one reported, good terms or not
    with pytest.raises(ValueError, match=r"exponent pair \(3, 0\) out of range"):
        HyperElem(ctx, {(0, 0): good, (3, 0): good})
    with pytest.raises(ValueError, match=f"weight function must have length {q}"):
        HyperElem(ctx, {(0, 0): good, (1, 1): good[:-1]})
    with pytest.raises(ValueError, match=f"weight function must have length {q}"):
        HyperElem(ctx, {(0, 0): np.zeros((2, q), dtype=np.int64), (0, 9): good})
    # all-zero rows, also rows that are zero only mod p, are dropped
    zeros = np.zeros(q, dtype=np.int64)
    terms = {(2, 1): 3 * good, (1, 2): good - 1, (0, 0): zeros, (1, 0): good}
    u = HyperElem(ctx, terms)
    assert list(u.terms) == [(1, 0), (1, 2)]
    for key, vec in u.terms.items():
        assert vec.tolist() == (np.asarray(terms[key]) % 3).tolist()
    # the block holds the kept rows only, in key order
    assert u._block.tolist() == [u.terms[key].tolist() for key in u.terms]
    assert HyperElem(ctx, {(0, 0): 3 * good}).is_zero()
    assert HyperElem(ctx, {(0, 0): zeros, (2, 2): 3 * good})._block.shape == (0, q)


def assert_finished(u):
    # the invariants of every element, however it was built
    ctx = u.ctx
    keys = list(u.terms)
    assert HyperElem(ctx, dict(u.terms)) == u
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(0 <= v.min() and v.max() < ctx.p and v.any() for v in u.terms.values())
    assert u._block.tolist() == [v.tolist() for v in u.terms.values()]
    # int16 storage (storage lemma): the rows are views of the one block
    assert u._block.dtype == np.int16
    assert all(v.base is u._block for v in u.terms.values())
    with pytest.raises(ValueError):
        u._block.setflags(write=True)
    if u.is_zero():
        assert u is zero(ctx)


@pytest.mark.parametrize(
    "ctx", [AlgebraCtx(*c) for c in [(2, 2, 2), (3, 1, 2), (3, 2, 2), (5, 1, 1)]], ids=str
)
def test_block_path_results_are_finished(ctx):
    # results of *, the scalar *, -, fr, fr_prime and embed skip `_canon`'s checks
    rng = random.Random(SEED)
    big = AlgebraCtx(ctx.p, ctx.r, ctx.rprime + 1)
    results = []
    for _ in range(10):
        u, v = rand_elem(rng, ctx, 4), rand_elem(rng, ctx, 4)
        results += [u * v, v * u, u * rng.randrange(-ctx.p, 2 * ctx.p), -u, fr_prime(u)]
        results += [embed(u, big), embed(u, big) * embed(v, big)]
        if ctx.r > 1:
            results.append(fr(u))
    # a product whose rows all vanish, and one that drops the rows of one
    # summand: idempotents of different weights multiply to zero
    mu0 = HyperElem(ctx, {(0, 0): np.eye(ctx.q, dtype=np.int64)[0]})
    mu1 = HyperElem(ctx, {(0, 0): np.eye(ctx.q, dtype=np.int64)[1]})
    es, ws = idempotents_by_weight(ctx)
    a, b = es[0], next(e for e, w in zip(es, ws) if w != ws[0])
    results += [mu0 * mu1, u * 0, u * ctx.p, (a + b) * a, a * (a + b)]
    assert results[-5] is results[-4] is results[-3] is zero(ctx)
    assert results[-2] == a == results[-1]
    for w in results:
        assert_finished(w)


# small contexts for the property tests, (2,1,4) with q = 16 included
SMALL_CTXS = [
    AlgebraCtx(*c) for c in [(2, 1, 1), (2, 2, 2), (2, 1, 4), (3, 1, 2), (3, 2, 2), (5, 1, 1)]
]


@st.composite
def dense_elem(draw, ctx):
    # up to six terms with arbitrary torus factors, zero ones included
    keys = st.tuples(st.integers(0, ctx.xy_range - 1), st.integers(0, ctx.xy_range - 1))
    vecs = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.q, max_size=ctx.q)
    return HyperElem(ctx, draw(st.dictionaries(keys, vecs, max_size=6)))


def elems_in_small_ctx(n):
    def elems(ctx):
        one_elem = st.one_of(sparse_elem(ctx), dense_elem(ctx))
        return st.tuples(*[one_elem] * n)

    return st.sampled_from(SMALL_CTXS).flatmap(elems)


PROPERTY = settings(derandomize=True, max_examples=120, deadline=None, database=None)


@PROPERTY
@given(elems_in_small_ctx(3))
def test_ring_axioms(elems):
    u, v, w = elems
    e = one(u.ctx)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w
    assert e * u == u == u * e


@PROPERTY
@given(elems_in_small_ctx(1))
def test_frobenius_round_trip(elems):
    (u,) = elems
    assert fr(fr_prime(u)) == u


@PROPERTY
@given(elems_in_small_ctx(1))
def test_embed_commutes_with_fr_prime(elems):
    (u,) = elems
    ctx = u.ctx
    p, r, rp = ctx.p, ctx.r, ctx.rprime
    for target in (AlgebraCtx(p, r, rp + 1), AlgebraCtx(p, r + 1, rp + 1)):
        lifted = AlgebraCtx(p, target.r + 1, target.rprime + 1)
        assert fr_prime(embed(u, target)) == embed(fr_prime(u), lifted)


def test_equality_needs_equal_contexts():
    # (3,1,2) and (3,2,2) share q = 9: their ones have equal keys and equal
    # blocks, and still lie in different algebras
    small, large = AlgebraCtx(3, 1, 2), AlgebraCtx(3, 2, 2)
    u, v = one(small), one(large)
    assert list(u.terms) == list(v.terms)
    assert np.array_equal(u.terms[(0, 0)], v.terms[(0, 0)])
    assert u != v and v != u
    assert embed(u, large) == v


def test_equality_sees_one_entry():
    # equal keys, blocks that differ in one entry of one row
    ctx = AlgebraCtx(3, 1, 2)
    rows = np.arange(2 * ctx.q, dtype=np.int64).reshape(2, ctx.q) % 3 + 1
    u = HyperElem(ctx, {(0, 1): rows[0], (1, 0): rows[1]})
    for k in range(2):
        for w in (0, ctx.q - 1):
            changed = rows.copy()
            changed[k, w] = changed[k, w] % 3 + 1
            v = HyperElem(ctx, {(0, 1): changed[0], (1, 0): changed[1]})
            assert list(v.terms) == list(u.terms)
            assert u != v and v != u
    assert u == HyperElem(ctx, {(1, 0): rows[1], (0, 1): rows[0]})


@PROPERTY
@given(st.sampled_from(SMALL_CTXS).flatmap(dense_elem))
def test_equality_survives_rebuilding_from_terms(u):
    assert u == HyperElem(u.ctx, dict(u.terms))


def test_elements_hold_keys_and_block_alone():
    # an element stores its keys and one block; a read of `terms` builds the
    # mapping of row views, so holding a family costs its blocks and keys
    # alone (about 94 bytes a row at (5,2,2), where a dict of row views
    # cost about 240).  The cache is cleared so that the family is built
    # here, whatever ran before.
    assert HyperElem.__slots__ == ("ctx", "_keys", "_block")
    ctx = AlgebraCtx(5, 2, 2)
    labels = enumerate_labels(ctx)
    tuple_idempotent.cache_clear()
    tracemalloc.start()
    try:
        es = [tuple_idempotent(lb, ctx) for lb in labels]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rows = sum(len(e.terms) for e in es)
    assert rows == 2916
    assert held <= sum(e._block.nbytes for e in es) + 160 * rows
    e = es[-1]
    first, second = e.terms, e.terms
    assert first is not second and list(first) == list(second)
    assert all(np.array_equal(first[key], second[key]) for key in first)
    for t in (first, second):
        assert all(v.base is e._block and v.dtype == np.int16 for v in t.values())
        key, vec = next(iter(t.items()))
        with pytest.raises(TypeError):
            t[key] = vec
        with pytest.raises(ValueError):
            vec[0] = 1
    assert e == tuple_idempotent(labels[-1], ctx)


def fr_via_coeffs(u):
    # the Frobenius map through the binomial basis: C(H, n) |-> C(H, n/p)
    # when p | n, else 0
    ctx = u.ctx
    p = ctx.p
    tgt = AlgebraCtx(p, ctx.r - 1, ctx.rprime - 1)
    out = {}
    for (m, mp), f in u.terms.items():
        if m % p == 0 and mp % p == 0:
            out[(m // p, mp // p)] = coeffs_to_weightfn(weightfn_to_coeffs(f, ctx)[::p], tgt)
    return HyperElem(tgt, out)


@st.composite
def frobenius_elem(draw, ctx):
    # keys biased to exponents divisible by p, which fr keeps; torus factors
    # arbitrary (sparse or dense), so most lie outside fr_prime's image
    p, q, nmax = ctx.p, ctx.q, ctx.xy_range
    kept = st.sampled_from(range(0, nmax, p))
    keys = st.one_of(st.tuples(kept, kept), st.tuples(*[st.integers(0, nmax - 1)] * 2))
    dense = st.lists(st.integers(0, p - 1), min_size=q, max_size=q)
    sparse = st.dictionaries(st.integers(0, q - 1), st.integers(1, p - 1), min_size=1, max_size=3)
    vecs = st.one_of(sparse.map(lambda d: [d.get(w, 0) for w in range(q)]), dense)
    return HyperElem(ctx, draw(st.dictionaries(keys, vecs, min_size=1, max_size=6)))


# contexts with r >= 2, where fr has a target
FR_CTXS = [AlgebraCtx(*c) for c in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (2, 3, 3), (5, 2, 2)]]


@PROPERTY
@given(st.sampled_from(FR_CTXS).flatmap(lambda ctx: st.tuples(*[frobenius_elem(ctx)] * 2)))
def test_frobenius_by_lucas_slicing(elems):
    # Lucas lemma: C(p*w, n) = C(w, n/p) when p | n and 0 otherwise, so the
    # evaluation vector of fr's torus factor is f[::p]
    u, v = elems
    assert fr(u) == fr_via_coeffs(u)
    assert fr(v) == fr_via_coeffs(v)
    assert fr(u * v) == fr(u) * fr(v)


@st.composite
def weight_coords_case(draw, ctx):
    # a weight and p**r coordinates, not reduced mod p and often zero
    nu = draw(st.integers(0, ctx.q - 1))
    coord = st.one_of(st.just(0), st.integers(-2 * ctx.p, 2 * ctx.p))
    return ctx, nu, draw(st.lists(coord, min_size=ctx.xy_range, max_size=ctx.xy_range))


@PROPERTY
@given(st.sampled_from(SMALL_CTXS).flatmap(weight_coords_case))
def test_from_weight_coords_inverts_weight_coords(case):
    ctx, nu, coords = case
    x = np.array(coords, dtype=np.int64) % ctx.p
    e = from_weight_coords(ctx, nu, coords)
    # sum_m x[m] Y^(m) delta_(nu+2m) X^(m), through the checked mapping path
    delta = np.eye(ctx.q, dtype=np.int64)
    assert e == HyperElem(ctx, {(m, m): x[m] * delta[(nu + 2 * m) % ctx.q] for m in range(len(x))})
    if not x.any():
        assert e is zero(ctx)
        return
    got_nu, got_x = weight_coords(e)
    assert got_nu == nu and got_x.tolist() == x.tolist()
    assert from_weight_coords(ctx, got_nu, got_x) == e


def test_from_weight_coords_zero_and_errors():
    ctx = AlgebraCtx(3, 2, 3)
    assert from_weight_coords(ctx, 5, np.zeros(9, dtype=np.int64)) is zero(ctx)
    assert from_weight_coords(ctx, 5, [3, 6, 0, 0, 0, 0, 0, 0, -9]) is zero(ctx)
    for bad in ([1] * 8, [1] * 10, [[1] * 9]):
        with pytest.raises(ValueError, match="length 9"):
            from_weight_coords(ctx, 0, bad)
    for nu in (-1, 27, 28):
        with pytest.raises(ValueError, match="out of range 0..26"):
            from_weight_coords(ctx, nu, [1] * 9)


# Overflow: the blocks are stored as int16, where (p - 1)**2 overflows once
# p >= 182.  At p = 251 and 257 (r = rprime = 1) every product of two stored
# entries leaves int16, so arithmetic that skipped the widening to int64
# would wrap; the references below use Python ints only.
WIDE_CTXS = [AlgebraCtx(251, 1, 1), AlgebraCtx(257, 1, 1)]


def wide_elem(rng, ctx, nterms=4):
    # dense torus factors with entries up to p - 1; small and large exponents
    keys = {(rng.randrange(ctx.p // 4), rng.randrange(ctx.p)) for _ in range(nterms)}
    keys |= {(rng.randrange(ctx.p), rng.randrange(ctx.p // 4)) for _ in range(nterms)}
    return HyperElem(ctx, {k: [rng.randrange(ctx.p) for _ in range(ctx.q)] for k in keys})


def int_terms(u):
    return {k: [int(x) for x in f.tolist()] for k, f in u.terms.items()}


def int_product(u, v):
    # the product formula of the module docstring in Python ints, binomials
    # by math.comb: Y^(m1+m2-i) mid X^(m1'+m2'-i) for i <= min(m1', m2), with
    # mid(w) = f1(w + 2i - 2m2) f2(w + 2i - 2m1') C(w - m1' - m2 + 2i, i) k
    ctx = u.ctx
    p, q = ctx.p, ctx.q
    acc = {}
    for (m1, m1p), f1 in int_terms(u).items():
        for (m2, m2p), f2 in int_terms(v).items():
            for i in range(min(m1p, m2) + 1):
                mm, mmp = m1 + m2 - i, m1p + m2p - i
                k = math.comb(mm, m1) * math.comb(mmp, m2p) % p
                if k == 0:
                    continue
                row = acc.setdefault((mm, mmp), [0] * q)
                c = m1p + m2 - 2 * i
                for w in range(q):
                    h = f1[(w + 2 * i - 2 * m2) % q] * f2[(w + 2 * i - 2 * m1p) % q]
                    row[w] += h * math.comb((w - c) % q, i) * k
    out = {key: [x % p for x in row] for key, row in acc.items()}
    return {key: row for key, row in out.items() if any(row)}


@pytest.mark.parametrize("ctx", WIDE_CTXS, ids=str)
def test_products_do_not_overflow_int16(ctx):
    rng = random.Random(SEED)
    u, v = wide_elem(rng, ctx), wide_elem(rng, ctx)
    pairs = [(u, v), (v, u), (u, u)]
    want = [int_product(a, b) for a, b in pairs]
    assert max(max(row) for row in want[0].values()) > 181
    got = products(pairs)
    assert [int_terms(w) for w in got] == want
    assert int_terms(u * v) == want[0]
    for w in got:
        assert_finished(w)


@pytest.mark.parametrize("ctx", WIDE_CTXS, ids=str)
def test_linear_operations_do_not_overflow_int16(ctx):
    rng = random.Random(SEED + 1)
    p = ctx.p
    u, v = wide_elem(rng, ctx), wide_elem(rng, ctx)
    fu, fv = int_terms(u), int_terms(v)
    for scalar in (p - 1, np.int64(p - 2), -(p - 1), 2 * p - 1):
        want = {k: [x * int(scalar) % p for x in f] for k, f in fu.items()}
        assert int_terms(u * scalar) == want == int_terms(scalar * u)
    assert int_terms(-u) == {k: [-x % p for x in f] for k, f in fu.items()}
    total = {k: f[:] for k, f in fu.items()}
    for k, f in fv.items():
        total[k] = [(a + b) % p for a, b in zip(total.get(k, [0] * ctx.q), f)]
    assert int_terms(u + v) == total
    assert int_terms(u - u * (p - 1)) == {k: [2 * x % p for x in f] for k, f in fu.items()}
    for w in (u * (p - 1), -u, u + v):
        assert_finished(w)


@pytest.mark.parametrize("ctx", WIDE_CTXS, ids=str)
def test_weyl_action_is_multiplicative_without_overflow(ctx):
    rng = random.Random(SEED + 2)
    u, v = wide_elem(rng, ctx, 3), wide_elem(rng, ctx, 3)
    uv = u * v
    for lam in (ctx.p - 1, ctx.p + 40):
        assert np.array_equal(weyl_action(uv, lam), weyl_action(u, lam) @ weyl_action(v, lam) % ctx.p)


def test_frobenius_round_trip_at_the_largest_liftable_prime():
    # fr_prime needs the context (p, r + 1, rprime + 1), so p**2 <= 4096: at
    # p = 251 there is none, and 61 is the largest prime with one
    ctx = AlgebraCtx(61, 1, 1)
    p = ctx.p
    u = wide_elem(random.Random(SEED + 3), ctx)
    lifted = fr_prime(u)
    assert int_terms(lifted) == {
        (m * p, mp * p): [f[w // p] for w in range(p * p)] for (m, mp), f in int_terms(u).items()
    }
    assert fr(lifted) == u and int_terms(fr(lifted)) == int_terms(u)
    for w in (lifted, fr(lifted)):
        assert_finished(w)


@pytest.mark.parametrize("ctx", WIDE_CTXS, ids=str)
def test_every_constructor_stores_int16_views(ctx):
    rng = random.Random(SEED + 4)
    u = wide_elem(rng, ctx)
    x = [rng.randrange(ctx.p) for _ in range(ctx.xy_range)]
    built = [
        u,
        zero(ctx),
        one(ctx),
        gen_x(ctx.p - 1, ctx),
        gen_y(3, ctx),
        gen_h_binom(ctx.q - 1, ctx),
        pbw_elem(2, 5, 7, ctx),
        from_weight_coords(ctx, 7, x),
        element_from_json(element_to_json(u)),
        embed(u, ctx),
        *degree_decompose(u).values(),
    ]
    for w in built:
        assert_finished(w)
    assert weight_coords(from_weight_coords(ctx, 7, x))[1].tolist() == x
