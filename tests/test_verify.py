"""The basic suite's certificate in the weight-space algebras B_nu.

The coordinate route (product-lemma slices, Frobenius matrix, characters)
is checked against `HyperElem` products, a dense reference slice and the
Weyl-module action, and the certificate is run on broken families, which
must fail with the label that broke them.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2hyper import cli, pims, verify
from sl2hyper.algebra import AlgebraCtx, HyperElem, gen_x, one, pbw_elem, zero
from sl2hyper.idempotents import (
    enumerate_labels,
    format_label,
    tuple_coords,
    tuple_idempotent,
    weight_projector,
)
from sl2hyper.pims import pim_label_closed_form, predicted_weight, weyl_action
from sl2hyper.verify import (
    certify_decomposition,
    weight_coords,
    weight_space_characters,
    weight_space_frobenius,
)

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


def reference_slice(ctx: AlgebraCtx, nus: list[int], a: int) -> np.ndarray:
    """t[k, b, c] = C(c,a) C(c,b) C(nu_k+a+b, a+b-c) for c <= a + b: the beta_c
    coordinate of beta_a beta_b in B_(nus[k]), by the product lemma (verify's
    module docstring) and the Pascal table."""
    p, n, pas = ctx.p, ctx.xy_range, ctx.pascal
    b, c = np.arange(n)[:, None], np.arange(n)
    # The last factor is read only where C(c,a) C(c,b) != 0 mod p, which forces
    # 0 <= a + b - c <= min(a, b) (and, by Lucas, is rare).
    coef = pas[c, a] * pas[c, b] * (c <= a + b) % p
    bs, cs = np.nonzero(coef)
    nu_col = np.array(nus, dtype=np.int64)[:, None]
    t = np.zeros((len(nus), n, n), dtype=np.int64)
    t[:, bs, cs] = coef[bs, cs] * pas[(nu_col + a + bs) % n, a + bs - cs] % p
    return t


def family(ctx):
    labels = enumerate_labels(ctx)
    return labels, [tuple_idempotent(lb, ctx) for lb in labels]


def results(ctx, labels, elements):
    return {c.name: c for c in certify_decomposition(ctx, labels, elements)}


def same_weight_pair(es):
    # the first two indices whose elements share a weight
    nus = [weight_coords(e)[0] for e in es]
    i = next(k for k in range(len(es)) if nus.count(nus[k]) > 1)
    return i, next(k for k in range(i + 1, len(es)) if nus[k] == nus[i])


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS)
def test_coordinate_products_match_hyperelem_products(p, r, rprime):
    # random elements of B_nu, unlike the idempotents, whose products are
    # mostly 0 or e_i: each character of a kernel product u * v is
    # chi(u) chi(v), and x Frob gives the kernel's p-th power of x
    ctx = AlgebraCtx(p, r, rprime)
    chars = weight_space_characters(ctx)
    frob = weight_space_frobenius(ctx, list(range(ctx.q)))
    vec = st.lists(st.integers(0, p - 1), min_size=ctx.xy_range, max_size=ctx.xy_range)

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(st.integers(0, ctx.q - 1), st.lists(vec, min_size=2, max_size=3))
    def check(nu, xs):
        chi = chars[nu][1]
        xs = np.array(xs, dtype=np.int64)
        elems = [elem_from_coords(nu, x, ctx) for x in xs]
        for x, u in zip(xs, elems):
            power = u
            for _ in range(p - 1):
                power = power * u
            assert np.array_equal(x @ frob[nu] % p, coords_of(power, nu, ctx))
            for y, v in zip(xs, elems):
                assert np.array_equal(chi @ coords_of(u * v, nu, ctx) % p, (chi @ x) * (chi @ y) % p)

    check()


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS + [(2, 2, 2), (2, 3, 3)])
def test_product_lemma_matches_kernel_products(p, r, rprime):
    # oracle for the product lemma (verify's module docstring), with the
    # grading and commutativity it gives: Y^(a)X^(a) Y^(b)X^(b), formed by the
    # kernel in both orders, has only keys (c, c), and its factor at nu + 2c
    # is the beta_c coordinate of beta_a beta_b in every B_nu
    ctx = AlgebraCtx(p, r, rprime)
    n, q = ctx.xy_range, ctx.q
    at = (np.arange(q)[:, None] + 2 * np.arange(n)) % q
    yx = [pbw_elem(a, 0, a, ctx) for a in range(n)]
    for a in range(n):
        # t[nu, b] holds the coordinates of beta_a beta_b in B_nu
        t = reference_slice(ctx, list(range(q)), a)
        for b in range(n):
            want = t[:, b]
            for u in (yx[a] * yx[b], yx[b] * yx[a]):
                g = np.zeros((n, q), dtype=np.int64)
                for (c, cp), f in u.terms.items():
                    assert c == cp, (a, b)
                    g[c] = f
                assert np.array_equal(g[np.arange(n), at], want), (a, b)


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS + [(2, 2, 2), (2, 3, 3)])
def test_support_lemma(p, r, rprime):
    # S_a is the c >= a digit by digit; for b in S_a the reference's beta_a
    # beta_b has no coordinate off S_a, and the package's slice is the
    # reference on S_a x S_a
    ctx = AlgebraCtx(p, r, rprime)
    n, nus = ctx.xy_range, list(range(ctx.q))
    digits = np.array([[c // p**k % p for k in range(r)] for c in range(n)])
    for a in range(n):
        want = reference_slice(ctx, nus, a)
        s, t = verify._product_lemma_slice(ctx, nus, a)
        assert np.array_equal(s, np.flatnonzero((digits >= digits[a]).all(axis=1))), a
        assert len(s) == np.prod(p - digits[a]) and s[0] == a
        off = np.setdiff1d(np.arange(n), s)
        assert not want[:, s[:, None], off].any(), a
        assert np.array_equal(t, want[:, s[:, None], s]), a


@pytest.mark.parametrize(
    "p, r, rprime",
    [(2, 2, 2), (2, 1, 3), (3, 2, 2), (3, 1, 2), (5, 2, 2), (2, 3, 4), (3, 1, 4), (3, 3, 3), (7, 1, 2)],
)
def test_frobenius_rows_are_pth_powers(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)
    nus = list(range(ctx.q))
    frob = weight_space_frobenius(ctx, nus)
    for nu in nus:
        for a in range(ctx.xy_range):
            beta = elem_from_coords(nu, np.eye(ctx.xy_range, dtype=np.int64)[a], ctx)
            power = beta
            for _ in range(p - 1):
                power = power * beta
            assert np.array_equal(frob[nu][a], coords_of(power, nu, ctx)), (nu, a)


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (5, 2, 2)])
def test_same_weight_idempotent_products_match_hyperelem_products(p, r, rprime):
    # the certificate reads e_i e_j from characters: each chi of the kernel
    # product is chi(e_i) chi(e_j), and the product is 0 exactly when no chi
    # is nonzero on both (character lemma)
    ctx = AlgebraCtx(p, r, rprime)
    chars = weight_space_characters(ctx)
    _, es = family(ctx)
    groups: dict[int, list] = {}
    for e in es:
        nu, x = weight_coords(e)
        groups.setdefault(nu, []).append((e, x))
    for nu, g in groups.items():
        chi = chars[nu][1]
        for ei, xi in g:
            for ej, xj in g:
                prod = coords_of(ei * ej, nu, ctx)
                want = (chi @ xi) * (chi @ xj) % p
                assert np.array_equal(chi @ prod % p, want)
                assert prod.any() == want.any()


@pytest.mark.parametrize("p, r, rprime", ORACLE_CTXS + [(2, 2, 2), (2, 3, 3)])
def test_characters_are_homomorphisms(p, r, rprime):
    # chi(beta_a) chi(beta_b) = sum_c t[a, b, c] chi(beta_c) for every character
    # of every B_nu, with t the product lemma's structure constants
    ctx = AlgebraCtx(p, r, rprime)
    nus = list(range(ctx.q))
    chars = weight_space_characters(ctx)
    assert sorted(chars) == nus
    for a in range(ctx.xy_range):
        t = reference_slice(ctx, nus, a)
        for nu in nus:
            chi = chars[nu][1]
            assert np.array_equal(chi[:, [a]] * chi % p, chi @ t[nu].T % p), (nu, a)


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (3, 2, 3), (5, 2, 2)])
def test_characters_match_the_weyl_action(p, r, rprime):
    # beta_m acts on v_i of the Weyl module V(mu) as chi_(mu,i)(beta_m) times
    # v_i (by Lucas, C(mu-i+m, m) = C(mu'-i+m, m) mod p for m <= i), and each
    # basis vector of each L(mu) gives one pair (Steinberg: dim L(mu') is the
    # number of i with C(mu', i) != 0 mod p)
    ctx = AlgebraCtx(p, r, rprime)
    n = ctx.xy_range
    chars = weight_space_characters(ctx)
    every = [pair for pairs, _ in chars.values() for pair in pairs]
    assert len(every) == len(set(every)) == len(enumerate_labels(ctx))
    for nu, (pairs, chi) in chars.items():
        for m in range(n):
            beta = elem_from_coords(nu, np.eye(n, dtype=np.int64)[m], ctx)
            for (mu, i), value in zip(pairs, chi[:, m]):
                assert (mu - 2 * i) % ctx.q == nu
                col = weyl_action(beta, mu)[:, i]
                assert col[i] == value, (nu, m, mu, i)
                assert not np.delete(col, i).any(), (nu, m, mu, i)


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (2, 3, 4), (3, 2, 3), (5, 2, 2)])
def test_each_idempotent_hits_the_pair_of_its_projective_cover(p, r, rprime):
    # the row of X Chi^T of each true idempotent is one 1, at a pair (mu, i)
    # with mu = lambda' + p**r lambda'' from pim_label_closed_form
    ctx = AlgebraCtx(p, r, rprime)
    chars = weight_space_characters(ctx)
    for lb, e in zip(*family(ctx)):
        nu, x = weight_coords(e)
        pairs, chi = chars[nu]
        values = chi @ x % p
        assert sorted(values.tolist()) == [0] * (len(pairs) - 1) + [1], format_label(lb)
        pl = pim_label_closed_form(lb, ctx)
        mu = pairs[int(np.argmax(values))][0]
        assert mu == pl.lambda_prime + ctx.xy_range * pl.lambda_double_prime, format_label(lb)


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


def test_dropped_labels_fail_sum_to_one():
    # one idempotent short, and every idempotent of one weight left out
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    assert results(ctx, labels, es)["sum-to-one"].passed
    nus = [weight_coords(e)[0] for e in es]
    keep = [k for k in range(len(es)) if nus[k] != nus[0]]
    for kept in (range(1, len(es)), keep):
        res = results(ctx, [labels[k] for k in kept], [es[k] for k in kept])
        assert res["sum-to-one"].detail == "sum differs from 1"


def test_basic_suite_forms_no_product_or_sum_of_elements(monkeypatch):
    # the families are built first; from then on only coordinates are used
    ctxs = [AlgebraCtx(3, 2, 3), AlgebraCtx(2, 2, 2)]
    for ctx in ctxs:
        family(ctx)
    real_mul = HyperElem.__mul__

    def scalar_only(self, other):
        if isinstance(other, HyperElem):
            raise AssertionError("a product of elements was formed")
        return real_mul(self, other)

    def no_sum(self, other):
        raise AssertionError("a sum of elements was formed")

    monkeypatch.setattr(HyperElem, "__mul__", scalar_only)
    monkeypatch.setattr(HyperElem, "__add__", no_sum)
    for ctx in ctxs:
        res = verify.run_suite(ctx, "basic")
        assert all(c.passed for c in res), (ctx, res)


def test_scaled_idempotent_fails_idempotency_by_label():
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    es[0] = 2 * es[0]
    res = results(ctx, labels, es)
    name = format_label(labels[0])
    assert not res["idempotency"].passed
    assert res["idempotency"].detail == f"{name} not idempotent"
    assert res["orthogonality"].passed


def test_added_idempotent_fails_orthogonality_by_pair():
    # x_i + x_j is idempotent and meets x_j: both products are named
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    i, j = same_weight_pair(es)
    es[i] = es[i] + es[j]
    res = results(ctx, labels, es)
    a, b = format_label(labels[i]), format_label(labels[j])
    assert res["idempotency"].passed
    assert res["orthogonality"].detail == f"{a} * {b} != 0; {b} * {a} != 0"
    assert res["label-count"].detail == f"{a} not primitive"


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 2), (3, 2, 3), (5, 2, 2)])
def test_row_off_the_frobenius_fixed_space_leaves_its_products_undecided(p, r, rprime):
    # x_0 + beta_(p**r - 1) of the same weight is not Frobenius-fixed: it
    # is not idempotent, and its products cannot be read from characters
    ctx = AlgebraCtx(p, r, rprime)
    labels, es = family(ctx)
    nu, x = weight_coords(es[0])
    x[-1] = (x[-1] + 1) % p
    es[0] = elem_from_coords(nu, x, ctx)
    res = results(ctx, labels, es)
    name = format_label(labels[0])
    assert res["idempotency"].detail == f"{name} not idempotent"
    assert res["orthogonality"].detail == f"{name} not Frobenius-fixed, products not decided"


def test_foreign_term_fails_both_checks_by_label():
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    k = 5
    es[k] = es[k] + gen_x(1, ctx)
    res = results(ctx, labels, es)
    name = format_label(labels[k])
    for check in ("idempotency", "orthogonality", "sum-to-one", "weights"):
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


def test_broken_weight_projectors_fail(monkeypatch):
    # each family breaks one law of the depth-r projectors
    ctx = AlgebraCtx(3, 1, 2)
    real = verify.weight_projector
    mu = [real(a, 1, ctx) for a in range(3)]

    def check(replace):
        def broken(a, s, c):
            return replace[a] if a in replace else real(a, s, c)

        monkeypatch.setattr(verify, "weight_projector", broken)
        return verify._check_mu_projectors(ctx)

    assert check({}) == ([], "3 projectors")
    for replace, failure in [
        ({1: 2 * mu[1]}, "projector 1 not idempotent"),  # a factor with an entry 2
        ({0: mu[0] + mu[1]}, "projectors 0,1 not orthogonal"),  # two classes overlap
        ({2: zero(ctx)}, "projectors do not sum to 1"),  # a class is missing
    ]:
        failures, _ = check(replace)
        assert failure in failures


def test_weight_projectors_at_primes_past_int16_squares(monkeypatch):
    # at p = 251, (p - 1)**2 leaves int16, the storage dtype of the factors
    assert verify._check_mu_projectors(AlgebraCtx(251, 1, 1)) == ([], "251 projectors")
    # at p = 271, 206 * 206 wraps in int16 to a value = 206 mod p, so only a
    # square formed in int64 shows that an entry 206 is not idempotent
    ctx = AlgebraCtx(271, 1, 1)
    real = verify.weight_projector
    scaled = 206 * real(7, 1, ctx)
    monkeypatch.setattr(verify, "weight_projector", lambda a, s, c: scaled if a == 7 else real(a, s, c))
    failures, _ = verify._check_mu_projectors(ctx)
    assert "projector 7 not idempotent" in failures


def test_weight_projector_outside_the_torus_fails(monkeypatch):
    # the pointwise lemma reads (0, 0) factors, so any other term is a failure
    ctx = AlgebraCtx(3, 1, 2)
    real = verify.weight_projector
    extra = real(1, 1, ctx) + real(1, 1, ctx) * gen_x(1, ctx)
    monkeypatch.setattr(verify, "weight_projector", lambda a, s, c: extra if a == 1 else real(a, s, c))
    failures, _ = verify._check_mu_projectors(ctx)
    assert failures == ["projector 1 not in the torus"]


def test_projector_without_a_torus_term_fails_the_binomial_form(monkeypatch, capsys):
    # a projector with no (0, 0) term is a failed check, not a KeyError
    ctx = AlgebraCtx(3, 1, 2)
    real = verify.weight_projector
    monkeypatch.setattr(
        verify, "weight_projector", lambda a, s, c: zero(c) if (a, s) == (2, 1) else real(a, s, c)
    )
    res = {c.name: c for c in verify.run_suite(ctx, "basic")}
    check = res["weight-projector-binomial-form"]
    assert check.passed is False and check.detail == "projector (2, depth 1) != binomial formula"
    assert cli.main(["verify", "--p", "3", "--r", "1", "--rprime", "2"]) == 1
    assert "FAIL weight-projector-binomial-form" in capsys.readouterr().out


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


def coord_rows(ctx, labels):
    nus, xs = tuple_coords(labels, ctx)
    return list(zip(nus.tolist(), xs))


def row_certificate(ctx, labels, rows):
    # the rows of the tensor lemma have degree 0, as run_suite passes them
    return verify._certificate(ctx, labels, rows, [[0]] * len(labels))


@pytest.mark.parametrize("p, r, rprime", [(2, 1, 1), (2, 2, 3), (3, 2, 3), (3, 1, 4), (5, 2, 2), (7, 1, 2)])
def test_certificate_on_rows_matches_the_element_route(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)
    labels, es = family(ctx)
    got = row_certificate(ctx, labels, coord_rows(ctx, labels))
    assert got == certify_decomposition(ctx, labels, es)
    assert all(c.passed for c in got), got


def test_broken_rows_fail_by_the_labels_of_the_element_route():
    # a scaled row, two swapped weights and a dropped label, each broken
    # alike in the rows and in the built family
    ctx = AlgebraCtx(3, 2, 3)
    labels, es = family(ctx)
    rows = coord_rows(ctx, labels)
    nus = [nu for nu, _ in rows]
    j = next(k for k in range(1, len(rows)) if nus[k] != nus[0])
    scaled_rows, scaled_es = rows.copy(), es.copy()
    scaled_rows[0], scaled_es[0] = (nus[0], 2 * rows[0][1] % 3), 2 * es[0]
    swapped_rows, swapped_es = rows.copy(), es.copy()
    swapped_rows[0], swapped_rows[j] = rows[j], rows[0]
    swapped_es[0], swapped_es[j] = es[j], es[0]
    for names, lbs, broken_rows, broken_es in [
        ({"idempotency", "sum-to-one"}, labels, scaled_rows, scaled_es),
        ({"weights"}, labels, swapped_rows, swapped_es),
        ({"label-count", "sum-to-one"}, labels[1:], rows[1:], es[1:]),
    ]:
        got = row_certificate(ctx, lbs, broken_rows)
        assert got == certify_decomposition(ctx, lbs, broken_es)
        assert {c.name for c in got if not c.passed} == names


@pytest.mark.parametrize("p, r, rprime", [(2, 1, 3), (2, 2, 3), (3, 1, 3), (3, 2, 3), (5, 1, 2)])
def test_frobenius_matrix_depends_on_the_weight_mod_p_to_the_r(p, r, rprime):
    # periodicity lemma (verify's module docstring): the product lemma reads
    # nu only through (nu + a + b) mod p**r
    ctx = AlgebraCtx(p, r, rprime)
    frob = weight_space_frobenius(ctx, list(range(ctx.q)))
    for nu in range(ctx.q):
        (want,) = weight_space_frobenius(ctx, [nu % ctx.xy_range]).values()
        assert np.array_equal(frob[nu], want), nu


@pytest.mark.parametrize("p, r, rprime", [(2, 2, 3), (3, 2, 3)])
def test_one_residue_per_frobenius_chunk_keeps_the_basic_results(monkeypatch, p, r, rprime):
    # the certificate forms the Frobenius matrices once per residue mod p**r,
    # in chunks; with the bound at one residue per chunk the results stay
    ctx = AlgebraCtx(p, r, rprime)
    real, calls = verify.weight_space_frobenius, []
    monkeypatch.setattr(verify, "weight_space_frobenius", lambda c, nus: calls.append(nus) or real(c, nus))
    want = verify.run_suite(ctx, "basic")
    assert calls == [list(range(ctx.xy_range))]
    calls.clear()
    monkeypatch.setattr(verify, "_FROB_ENTRIES", 1)
    assert verify.run_suite(ctx, "basic") == want
    assert calls == [[res] for res in range(ctx.xy_range)]
    assert all(c.passed for c in want), want


def test_bulk_readers_leave_the_idempotent_cache_empty(capsys):
    # the family is read from tuple_coords, and built one element at a time
    ctx = AlgebraCtx(3, 2, 3)
    show = ["show", "--p", "3", "--r", "2", "--rprime", "3", "--label", format_label(enumerate_labels(ctx)[5])]
    for run in [
        lambda: verify.run_suite(ctx, "basic"),
        lambda: pims.pim_rows(ctx),
        lambda: cli.main(show),
        lambda: cli.main(show + ["--format", "json"]),
    ]:
        tuple_idempotent.cache_clear()
        run()
        assert tuple_idempotent.cache_info().currsize == 0
    # the full suite builds the 8 elements of its JSON round trips alone
    tuple_idempotent.cache_clear()
    assert all(c.passed for c in verify.run_suite(AlgebraCtx(3, 2, 2), "full"))
    assert tuple_idempotent.cache_info().currsize <= 8
    capsys.readouterr()


def test_associativity_failure_names_its_trial(monkeypatch):
    # a wrong (u v) w at trial 137 fails the check by that trial alone; the
    # first products of every trial are one call, and the second ones another
    ctx = AlgebraCtx(3, 2, 2)
    assert verify._check_associativity(ctx, random.Random(1)) == ([], "200 random triples")
    real, calls = verify.products, []

    def broken(pairs):
        out = real(pairs)
        calls.append(len(out))
        if len(calls) == 2:
            out[2 * 137] = out[2 * 137] + one(ctx)
        return out

    monkeypatch.setattr(verify, "products", broken)
    failures, detail = verify._check_associativity(ctx, random.Random(1))
    assert calls == [400, 400]
    assert failures == ["trial 137"] and detail == "200 random triples"


def break_one_product(monkeypatch, call, item):
    """Patch `verify.products` to record each call's length and to add 1 to
    product `item` of call number `call` (counted from 1)."""
    real, calls = verify.products, []

    def broken(pairs):
        out = real(pairs)
        calls.append(len(out))
        if len(calls) == call:
            out[item] = out[item] + one(out[item].ctx)
        return out

    monkeypatch.setattr(verify, "products", broken)
    return calls


@pytest.mark.parametrize(
    "call, item, failure",
    [
        (1, 0, "product collapse fails at a=0, b=0"),  # z1 z2 of draw 0
        (4, 44, "(1,0) m=2: X/Y^(np) fails"),  # window law 4 (window 0, n = 2, Y), left
        (4, 71, "(2,2) m=2: torus intertwining fails"),  # window law 17, right
        (5, 2 * 7 + 1, "product collapse fails at a=0, b=2"),  # the right side of draw 7
        (6, 7, "product collapse fails at a=0, b=2"),  # the left side of draw 7
    ],
)
def test_window_identities_form_each_layer_in_one_call(monkeypatch, call, item, failure):
    # z1 z2 of the 18 draws, then mu Y^(m) and X^(m-s) of the 3 windows, then
    # the k-th products of every law's chains: the 18 collapse laws' two sides
    # (4 and 3 factors) and the 18 window laws' two sides (2 factors)
    ctx = AlgebraCtx(3, 2, 2)
    assert verify._check_window_identities(ctx, random.Random(1)) == ([], "")
    calls = break_one_product(monkeypatch, call, item)
    assert verify._check_window_identities(ctx, random.Random(1)) == ([failure], "")
    assert calls == [18, 3, 3, 72, 36, 18]


LIFTS = 31  # lifts per pair at p = 3: the unit, 4 trials of 5, 10 cross sides


@pytest.mark.parametrize(
    "call, item, failure",
    [
        (1, 3 * 9 + 1, "X descent fails for (1,0)"),  # X z1 of trial 9: pair 2, trial 1
        (2, 5 * 22 + 2, "corner containment fails for (2,2)"),  # zz e of trial 22: pair 5
        (2, 5 * 24 + 7, "cross product not zero: (0,2) vs (1,2)"),  # cross pair 7
    ],
)
def test_lifting_laws_form_each_layer_in_one_call(monkeypatch, call, item, failure):
    # z1 z2, X z1 and Y z1 of the 24 trials in one call, one `z_operators`
    # call per pair, then the trials' 120 products and the 30 cross products
    ctx = AlgebraCtx(3, 2, 2)
    pairs = verify.all_pairs(3)
    assert verify._check_z_operator_laws(ctx, random.Random(1)) == ([], "")
    calls = break_one_product(monkeypatch, call, item)
    real, lifts = verify.z_operators, []
    monkeypatch.setattr(verify, "z_operators", lambda zs, pr: lifts.append((pr, len(zs))) or real(zs, pr))
    assert verify._check_z_operator_laws(ctx, random.Random(1)) == ([failure], "")
    assert calls == [72, 150]
    assert lifts == [(pr, LIFTS) for pr in pairs]


def z_operator_laws_one_at_a_time(ctx, rng, lift):
    """The lifting laws with one `lift(z, pair)` per image and one product per
    `*`, in the order of the draws: the reference order of the failures."""
    p = ctx.p
    base, tgt = AlgebraCtx(p, 1, 1), AlgebraCtx(p, 2, 2)
    pairs = verify.all_pairs(p)
    bad = []
    for pr in pairs:
        e_emb = verify.embed(verify.level1_idempotent(pr, base), tgt)
        if lift(one(base), pr) != e_emb:
            bad.append(f"unit image off for ({pr.a},{pr.two_j})")
        for _ in range(4):
            z1, z2 = verify._rand_elem(rng, base, 2), verify._rand_elem(rng, base, 2)
            zz = lift(z1, pr)
            if zz * lift(z2, pr) != lift(z1 * z2, pr):
                bad.append(f"multiplicativity fails for ({pr.a},{pr.two_j})")
            if e_emb * zz != zz or zz * e_emb != zz:
                bad.append(f"corner containment fails for ({pr.a},{pr.two_j})")
            if gen_x(p, tgt) * zz != lift(gen_x(1, base) * z1, pr):
                bad.append(f"X descent fails for ({pr.a},{pr.two_j})")
            if verify.gen_y(p, tgt) * zz != lift(verify.gen_y(1, base) * z1, pr):
                bad.append(f"Y descent fails for ({pr.a},{pr.two_j})")
    for pr1 in pairs:
        for pr2 in pairs:
            if pr1 != pr2:
                z1, z2 = verify._rand_elem(rng, base, 2), verify._rand_elem(rng, base, 2)
                if not (lift(z1, pr1) * lift(z2, pr2)).is_zero():
                    bad.append(f"cross product not zero: ({pr1.a},{pr1.two_j}) vs ({pr2.a},{pr2.two_j})")
    return bad


# (pair, draw): pair k's trial t draws z1, z2 at 2 (4k + t) and 2 (4k + t) + 1,
# and cross pair j draws at 48 + 2j (pr1's side) and 48 + 2j + 1 (pr2's)
@pytest.mark.parametrize(
    "pair, draw",
    [
        (4, None),  # the unit image of pair 4
        (2, 18),  # z1 of pair 2, trial 1
        (5, 47),  # z2 of pair 5, trial 3
        (0, 48),  # pr1's side of cross pair 0, (0,0) vs (0,2)
        (2, 83),  # pr2's side of cross pair 17, (1,2) vs (1,0)
        (3, "all"),  # every image of pair 3: its unit, trials and cross pairs
    ],
)
def test_a_wrong_lift_fails_in_the_order_of_the_draws(monkeypatch, pair, draw):
    # one image (or all of one pair's) off by 1: the batched check names the
    # same failures, in the same order, as the laws checked one product at a time
    ctx = AlgebraCtx(3, 2, 2)
    base = AlgebraCtx(3, 1, 1)
    pr = verify.all_pairs(3)[pair]
    replay = random.Random(1)
    draws = [verify._rand_elem(replay, base, 2) for _ in range(2 * (4 * 6 + 30))]
    target = one(base) if draw is None else None if draw == "all" else draws[draw]

    def wrong(z, pr_):
        hit = pr_ == pr and (draw == "all" or z == target)
        return one(ctx) if hit else zero(ctx)

    real = verify.z_operators
    monkeypatch.setattr(verify, "z_operators", lambda zs, pr_: [w + wrong(z, pr_) for z, w in zip(zs, real(zs, pr_))])
    want = z_operator_laws_one_at_a_time(ctx, random.Random(1), lambda z, pr_: real([z], pr_)[0] + wrong(z, pr_))
    assert want
    assert verify._check_z_operator_laws(ctx, random.Random(1)) == (want, "")


def test_oracle_forms_its_products_in_one_call(monkeypatch):
    ctx = AlgebraCtx(3, 2, 2)
    calls = break_one_product(monkeypatch, 1, 3 * 5 + 1)
    assert verify._check_oracle(ctx, random.Random(1)) == (["highest weight 5"], "weights 0..16")
    assert calls == [3 * 17]


def test_split_product_rank_reads_its_coordinates_in_one_conversion(monkeypatch):
    real, shapes = pims.weightfn_to_coeffs, []
    monkeypatch.setattr(pims, "weightfn_to_coeffs", lambda f, c: shapes.append(f.shape) or real(f, c))
    calls = break_one_product(monkeypatch, 0, 0)
    assert verify._check_product_independence(3) == ([], "729 products")
    assert calls == [729] and len(shapes) == 1 and shapes[0][1] == 9


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
    "p, r, rprime", [(2, 2, 2), (2, 1, 1), (2, 2, 3), (2, 1, 2), (3, 2, 2), (3, 1, 2), (3, 2, 3)]
)
def test_merged_pair_fails_label_count_by_label(p, r, rprime):
    # e_i + e_j of one weight is an idempotent orthogonal to the rest, but
    # not primitive: two characters are 1 on it.  The character lemma names
    # it at every p, p = 2 with r = rprime included.
    ctx = AlgebraCtx(p, r, rprime)
    labels, es = family(ctx)
    i, j = same_weight_pair(es)
    es[i] = es[i] + es.pop(j)
    labels.pop(j)
    res = results(ctx, labels, es)
    assert [c for c, r in res.items() if not r.passed] == ["label-count"]
    n = len(labels)
    want = f"{n} labels, simple-dimension sum {n + 1}; {format_label(labels[i])} not primitive"
    assert res["label-count"].detail == want
