"""The basic suite's certificate in the weight-space algebras B_nu.

The coordinate route (structure constants, contraction, Frobenius matrix)
is checked against `HyperElem` products, and the certificate is run on
broken families, which must fail with the label that broke them.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2hyper import verify
from sl2hyper.algebra import AlgebraCtx, HyperElem, gen_x, one, pbw_elem, zero
from sl2hyper.idempotents import (
    enumerate_labels,
    format_label,
    tuple_idempotent,
    weight_projector,
)
from sl2hyper.pims import predicted_weight
from sl2hyper.verify import certify_decomposition, weight_coords, weight_space_products

ORACLE_CTXS = [(2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 2)]


def elem_from_coords(nu, x, ctx):
    # sum_m x[m] beta_m with beta_m = Y^(m) delta_(nu+2m) X^(m)
    terms = {}
    for m, val in enumerate(x):
        f = np.zeros(ctx.q, dtype=np.int64)
        f[(nu + 2 * m) % ctx.q] = val
        terms[(m, m)] = f
    return HyperElem(ctx, terms)


def coords_of(u, nu, ctx):
    # coordinates of a product in B_nu, reading zero as the zero vector
    if u.is_zero():
        return np.zeros(ctx.xy_range, dtype=np.int64)
    got_nu, x = weight_coords(u)
    assert got_nu == nu
    return x


def family(ctx):
    labels = enumerate_labels(ctx)
    return labels, [tuple_idempotent(lb, ctx) for lb in labels]


def results(ctx, labels, elements):
    return {c.name: c for c in certify_decomposition(ctx, labels, elements)}


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS)
def test_coordinate_products_match_hyperelem_products(p, r, rprime):
    # random elements of B_nu, unlike the idempotents, whose products are
    # mostly 0 or e_i and so miss index errors in the contraction
    ctx = AlgebraCtx(p, r, rprime)
    vec = st.lists(st.integers(0, p - 1), min_size=ctx.xy_range, max_size=ctx.xy_range)

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.integers(0, ctx.q - 1), st.lists(vec, min_size=2, max_size=3))
    def check(nu, xs):
        prods, _ = weight_space_products(ctx, {nu: np.array(xs, dtype=np.int64)})
        elems = [elem_from_coords(nu, x, ctx) for x in xs]
        for i, u in enumerate(elems):
            for j, v in enumerate(elems):
                assert np.array_equal(prods[nu][i, j], coords_of(u * v, nu, ctx))

    check()


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS)
def test_structure_products_have_degree_zero_and_commute(p, r, rprime):
    # oracle for the grading and anti-involution lemmas (verify's module
    # docstring): every Y^(a)X^(a) Y^(b)X^(b), formed here in the reversed
    # order, has only keys (c, c), and the slices satisfy g^{ab} = g^{ba}
    ctx = AlgebraCtx(p, r, rprime)
    n = ctx.xy_range
    yx = [pbw_elem(a, 0, a, ctx) for a in range(n)]
    for a, g in verify._yx_slices(ctx):
        for b in range(n):
            reversed_ = np.zeros((n, ctx.q), dtype=np.int64)
            for (c, cp), f in (yx[b] * yx[a]).terms.items():
                assert c == cp, (b, a)
                reversed_[c] = f
            assert np.array_equal(g[b], reversed_), (a, b)


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (2, 1, 3), (3, 2, 2), (3, 1, 2)])
def test_frobenius_rows_are_pth_powers(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)
    nus = list(range(ctx.q))
    coords = {nu: np.eye(ctx.xy_range, dtype=np.int64) for nu in nus}
    _, frob = weight_space_products(ctx, coords)
    for nu in nus:
        for a in range(ctx.xy_range):
            beta = elem_from_coords(nu, np.eye(ctx.xy_range, dtype=np.int64)[a], ctx)
            power = beta
            for _ in range(p - 1):
                power = power * beta
            assert np.array_equal(frob[nu][a], coords_of(power, nu, ctx)), (nu, a)


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 2)])
def test_same_weight_idempotent_products_match_hyperelem_products(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)
    _, es = family(ctx)
    groups: dict[int, list] = {}
    for e in es:
        nu, x = weight_coords(e)
        groups.setdefault(nu, []).append((e, x))
    coords = {nu: np.array([x for _, x in g]) for nu, g in groups.items()}
    prods, _ = weight_space_products(ctx, coords)
    for nu, g in groups.items():
        for i, (ei, _) in enumerate(g):
            for j, (ej, _) in enumerate(g):
                assert np.array_equal(prods[nu][i, j], coords_of(ei * ej, nu, ctx))


def test_weight_coords_reads_idempotents():
    ctx = AlgebraCtx(3, 2, 3)
    for lb, e in zip(*family(ctx)):
        nu, x = weight_coords(e)
        assert elem_from_coords(nu, x, ctx) == e, format_label(lb)


def test_true_families_pass():
    for c in [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3), (5, 1, 1)]:
        ctx = AlgebraCtx(*c)
        res = results(ctx, *family(ctx))
        assert all(r.passed for r in res.values()), (c, res)


def test_dropped_label_fails_the_simple_dimension_sum():
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    n = len(labels)
    assert results(ctx, labels, es)["label-count"].detail == f"{n} labels = sum of simple dimensions"
    detail = results(ctx, labels[1:], es[1:])["label-count"].detail
    assert f"{n - 1} labels, simple-dimension sum {n}" in detail.split("; ")


def test_scaled_idempotent_fails_idempotency_by_label():
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    es[0] = 2 * es[0]
    res = results(ctx, labels, es)
    name = format_label(labels[0])
    assert not res["idempotency"].passed
    assert res["idempotency"].detail == f"{name} not idempotent"
    assert res["orthogonality"].passed


def test_merged_idempotents_fail_the_berlekamp_count():
    # e_i + e_j of one weight is an idempotent orthogonal to the rest, but
    # not primitive: B_nu has one more local factor than the family has members
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    nus = [weight_coords(e)[0] for e in es]
    i = 0
    j = next(k for k in range(1, len(es)) if nus[k] == nus[i])
    count = nus.count(nus[i])
    es[i] = es[i] + es.pop(j)
    labels.pop(j)
    res = results(ctx, labels, es)
    assert res["idempotency"].passed and res["orthogonality"].passed
    assert res["sum-to-one"].passed
    assert not res["label-count"].passed
    want = f"weight {nus[i]}: {count - 1} idempotents, ker {count}, rank {count}"
    assert want in res["label-count"].detail.split("; ")


def test_foreign_term_fails_both_checks_by_label():
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    k = 5
    es[k] = es[k] + gen_x(1, ctx)
    res = results(ctx, labels, es)
    name = format_label(labels[k])
    for check in ("idempotency", "orthogonality", "weights"):
        assert not res[check].passed
        assert res[check].detail.startswith(f"{name} has a term of degree 1")


def test_swapped_weights_fail_weights_by_label():
    # the family as a set is unchanged, so only the weight comparison sees it
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    nus = [predicted_weight(lb, ctx) for lb in labels]
    i = 0
    j = next(k for k in range(1, len(es)) if nus[k] != nus[i])
    es[i], es[j] = es[j], es[i]
    res = results(ctx, labels, es)
    assert [c for c, r in res.items() if not r.passed] == ["weights"]
    failed = res["weights"].detail.split("; ")
    assert [f.split(": ")[0] for f in failed] == [format_label(labels[i]), format_label(labels[j])]


def test_nonzero_degree_weight_vector_fails_weights():
    # a left weight vector of degree 1 has a weight, but no B_nu coordinates
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    k = 7
    es[k] = weight_projector(predicted_weight(labels[k], ctx), ctx.rprime, ctx) * gen_x(1, ctx)
    res = results(ctx, labels, es)
    name = format_label(labels[k])
    assert res["weights"].detail == f"{name} has a term of degree 1"
    assert res["degree-zero"].detail == f"{name} has degrees [1]"


def test_unmatched_or_foreign_input_is_rejected_before_any_work(monkeypatch):
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)

    def no_work(e):
        raise AssertionError("an element was read")

    monkeypatch.setattr(verify, "weight_coords", no_work)
    with pytest.raises(ValueError, match="107 labels for 108 elements"):
        certify_decomposition(ctx, labels[:-1], es)
    with pytest.raises(ValueError, match="108 labels for 107 elements"):
        certify_decomposition(ctx, labels, es[:-1])
    with pytest.raises(ValueError, match="outside"):
        certify_decomposition(ctx, labels, es[:-1] + [one(AlgebraCtx(3, 2, 2))])


@pytest.mark.parametrize("p, r, rprime", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 2, 2)])
def test_rand_elem_matches_the_sum_of_its_terms(p, r, rprime):
    # one construction per element, the same element and RNG state as the
    # running sum of c * pbw_elem(m, n, m') in the same draw order
    ctx = AlgebraCtx(p, r, rprime)
    fast, slow = random.Random(p * 100 + rprime), random.Random(p * 100 + rprime)
    for k in range(400):
        nterms = 1 + k % 4
        out = zero(ctx)
        for _ in range(nterms):
            m = slow.randrange(ctx.xy_range)
            mp_ = slow.randrange(ctx.xy_range)
            n = slow.randrange(ctx.q)
            out = out + slow.randrange(1, ctx.p) * pbw_elem(m, n, mp_, ctx)
        assert verify._rand_elem(fast, ctx, nterms) == out
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize(
    "p, r, rprime, counted",
    [
        (2, 2, 2, False),
        (2, 1, 1, False),
        (2, 2, 3, True),
        (2, 1, 2, True),
        (3, 2, 2, True),
        (3, 1, 2, True),
    ],
)
def test_berlekamp_counts_certify_exactly_when_p_odd_or_r_below_rprime(p, r, rprime, counted):
    # merge two same-weight idempotents: the Berlekamp count sees it wherever
    # it is part of the certificate (the theory count sees the shorter list)
    ctx = AlgebraCtx(p, r, rprime)
    labels, es = family(ctx)
    nus = [weight_coords(e)[0] for e in es]
    i = next(k for k in range(len(es)) if nus.count(nus[k]) > 1)
    j = next(k for k in range(i + 1, len(es)) if nus[k] == nus[i])
    es[i] = es[i] + es.pop(j)
    labels.pop(j)
    detail = results(ctx, labels, es)["label-count"].detail
    assert ("ker" in detail) is counted
