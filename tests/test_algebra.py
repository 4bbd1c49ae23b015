import functools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gen_h_binom,
    gen_x,
    gen_y,
    one,
    pbw_elem,
    shift_weightfn,
    weightfn_to_coeffs,
    zero,
)
from sl2hyper.idempotents import enumerate_labels, tuple_idempotent
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
    # the table is cached per (p, q) and shared: a write into it would change
    # every later gen_h_binom and product in that context (p = 11 is used by
    # no other test, so a writeable table cannot leak into them)
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
            # h(w) = f1(w - 2m2) f2(w - 2m1')
            h = np.roll(f1, 2 * m2) * np.roll(f2, 2 * m1p) % p
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
# drops; (2,1,7) has q = 128, the widest rows drawn here
@pytest.mark.parametrize(
    "p, r, rprime",
    [(2, 1, 1), (2, 3, 3), (3, 2, 3), (3, 3, 3), (5, 2, 2), (7, 1, 2), (2, 1, 7)],
)
def test_kernel_matches_per_pair_products(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(sparse_elem(ctx), sparse_elem(ctx))
    def check(u, v):
        assert u * v == product_per_pair(u, v)

    check()


def tau(u):
    # the anti-involution Y^(m) f X^(m') -> Y^(m') f X^(m): swap each key
    return HyperElem(u.ctx, {(mp, m): f for (m, mp), f in u.terms.items()})


@pytest.mark.parametrize(
    "p, r, rprime",
    [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 1, 2)],
)
def test_anti_involution_reverses_products(p, r, rprime):
    # oracle for verify's anti-involution lemma, on which the commutativity
    # of the weight-space algebras B_nu rests: tau(uv) = tau(v) tau(u)
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
