"""Named verification suites over a context.

The basic suite certifies the decomposition itself (counts, idempotency,
orthogonality, sum to one, weights, degree purity).  The full suite adds
the engine and construction internals: polynomial identities, closed-form
cross-checks, commutation families, the lifting operator's laws, Frobenius
round trips, associativity and Weyl-oracle sampling, and the projective
cover census where the ambient dimension keeps it cheap.

The basic suite decides idempotency and orthogonality in the weight-space
algebras B_nu (the *weight-space lemma*).  For a weight nu mod q = p**rprime,
B_nu is the span of beta_m = Y^(m) delta_(nu+2m) X^(m) for m < p**r, where
delta_w is the torus factor that is 1 at weight w and 0 elsewhere.  Suppose
e has degree 0 and each torus factor f_m is nonzero only at (nu + 2m) mod q.
Then e = sum_m f_m(nu + 2m) beta_m, and mu_nu e = e = e mu_nu, since
degree-0 terms commute with the torus.  Hence:

* two such elements of different weights multiply to
  e_i mu_nu mu_nu' e_j = 0, and no product is needed;
* the *product lemma* gives the structure constants of every B_nu.  By the
  divided-power commutation formula
  X^(a) Y^(b) = sum_i Y^(b-i) C(H-a-b+2i, i) X^(a-i) (Kostant; Jantzen,
  Representations of Algebraic Groups, II.1), with Y^(a) Y^(b-i) and
  X^(a-i) X^(b) merged and c = a + b - i,

      Y^(a)X^(a) Y^(b)X^(b) = sum_c C(c,a) C(c,b) Y^(c) C(H+a+b-2c, a+b-c) X^(c).

  As beta_a = Y^(a)X^(a) delta_nu and delta_nu commutes with degree 0,
  beta_a beta_b is this product times delta_nu, and so

      beta_a beta_b = sum_c C(c,a) C(c,b) C(nu+a+b, a+b-c) beta_c,

  over max(a, b) <= c <= a + b with c < p**r (from c = p**r on, Y^(a)
  Y^(b-i) carries out of the top base-p digit, so C(c,a) = 0 mod p).
  Here a + b - c < p**r <= q, so by Lucas the last factor depends on
  nu + a + b mod q only.  This holds for every p, p = 2 with r = rprime
  included.  The formula is symmetric in a and b, so B_nu is commutative
  and Frob: x |-> x^p is F_p-linear on B_nu; row a of its matrix is
  beta_a^p, formed by p - 1 left multiplications by beta_a.

Within one weight, the *character lemma* decides idempotency,
orthogonality and primitivity without a product of two idempotents.

* Weight vectors give characters.  For mu < q write mu = mu' + p**r mu''
  with mu' < p**r.  L(mu) has the basis v_i, for 0 <= i <= mu' with
  C(mu', i) != 0 mod p, and v_i has weight (mu - 2i) mod q.  beta_m acts
  on v_i as the scalar chi_(mu,i)(beta_m) = C(mu'-i+m, m) C(i, m): by the
  Weyl-module rules of `pims.weyl_action`, X^(m) and then Y^(m) return
  v_i, and the torus factor is 1 at the weight between them.  So each
  pair (mu, i) is a character of B_nu, where nu = mu - 2i mod q.
* These are all the simple B_nu-modules.  B_nu and mu_nu A mu_nu share the
  unit mu_nu, so by Jordan-Hoelder every simple B_nu-module is a
  composition factor of the restriction of a simple mu_nu A mu_nu-module,
  and those are the nonzero mu_nu L(mu) (Green, Polynomial Representations
  of GL_n, 6.2; Jantzen, Representations of Algebraic Groups, II.9).
  Hence B_nu / rad = F_p^L, and a Frobenius-fixed x (x^p = x) equals
  sum_l chi_l(x) eps_l over the primitive idempotents eps_l of B_nu.  None
  of this needs mu_nu A mu_nu = B_nu, so the lemma holds for every p, p = 2
  with r = rprime included.
* Certificate.  Let Chi_nu be the matrix whose rows are the chi_(mu,i) of
  weight nu.  Row x_k is idempotent exactly when x_k Frob = x_k and every
  chi(x_k) lies in {0, 1}.  Two Frobenius-fixed rows multiply to 0
  exactly when no chi is nonzero on both.  An idempotent row is primitive
  in A exactly when exactly one (mu, i) has chi(x_k) = 1, because
  Hom_A(A x_k, L(mu)) = x_k L(mu), x_k acts diagonally on the v_i, and
  End_A L(mu) = F_p.

So each idempotent is read into p**r scalars, and no product of the
algebra is formed after construction.  `orthogonality` decides its N(N-1)
ordered products by the weight-space lemma for each pair of different
weights and by the characters for each pair of the same weight.  A row
that is not Frobenius-fixed is not idempotent (x^2 = x gives x^p = x), and
its products are not decided.  A non-primitive idempotent fails
`label-count`.  `sum-to-one` reads coordinates too: the beta_m of all
weights nu are distinct basis elements Y^(m) delta_w X^(m), w = nu + 2m,
and 1 = sum_nu beta_0, so the idempotents sum to 1 exactly when every
weight mod q occurs and each weight's rows sum to beta_0.

`weight-projectors` rests on the *pointwise lemma*: torus-only elements
multiply pointwise in evaluation form (two (0, 0) terms meet at i = 0
alone, with coefficient 1 and no shift).  So a 0/1 factor is idempotent,
factors are orthogonal exactly when their supports are disjoint (p is
prime), and factors that partition Z/q sum to 1.

`weight-projector-binomial-form` rests on the *periodicity lemma*: for
k < p**s, C(z, k) mod p depends only on z mod p**s, for every integer z.
By Vandermonde, C(z + p**s, k) = sum_j C(p**s, j) C(z, k - j), an identity
of polynomials in z, and C(p**s, j) = 0 mod p for 0 < j < p**s (Lucas);
`modp.binom_mod_p` evaluates that polynomial, through the reflection
C(z, k) = (-1)**k C(k - z - 1, k) for z < 0.  So each depth s needs one
row of p**s binomials, not one per weight and projector.

Each check returns a CheckResult; nothing here prints or exits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .algebra import (
    PASS_ENTRIES,
    AlgebraCtx,
    HyperElem,
    coeffs_to_weightfn,
    element_from_json,
    element_to_json,
    embed,
    fr,
    fr_prime,
    gen_h_binom,
    gen_x,
    gen_y,
    one,
    pbw_elem,
    products,
    weight_coords,
    weightfn_to_coeffs,
    x_power,
    y_power,
    zero,
)
from .fpoly import (
    Poly,
    min_power_by_division,
    selector_poly,
    squares_poly,
    yx_power_poly,
)
from .idempotents import (
    TupleLabel,
    all_pairs,
    enumerate_labels,
    format_label,
    level1_idempotent,
    min_xy_power,
    min_yx_power,
    recursion_shift,
    tuple_idempotent,
    weight_projector,
    xy_coeff_table,
    xy_expansion,
    yx_coeff_table,
    yx_expansion,
    z_operator,
)
from .modp import binom_mod_p, inv_mod_p
from .pims import (
    IdealBasis,
    pim_rows,
    predicted_top_x,
    predicted_weight,
    top_x_exponent,
    weyl_action,
)

DEFAULT_SEED = 20240601

__all__ = [
    "CheckResult",
    "run_suite",
    "certify_decomposition",
    "weight_space_characters",
    "weight_space_frobenius",
    "DEFAULT_SEED",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, failures: list[str], detail_ok: str = "") -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures[:4]))
    return CheckResult(name, True, detail_ok)


def _rand_elem(rng: random.Random, ctx: AlgebraCtx, nterms: int = 3) -> HyperElem:
    terms: dict[tuple[int, int], np.ndarray] = {}
    for _ in range(nterms):
        m = rng.randrange(ctx.xy_range)
        mp_ = rng.randrange(ctx.xy_range)
        n = rng.randrange(ctx.q)
        terms[m, mp_] = terms.get((m, mp_), 0) + rng.randrange(1, ctx.p) * ctx.pascal[:, n]
    return HyperElem(ctx, terms)


def _check_mu_projectors(ctx: AlgebraCtx) -> CheckResult:
    # pointwise lemma (module docstring): the (0, 0) factors are read, not multiplied
    p, ps = ctx.p, ctx.p**ctx.r
    mus = [weight_projector(a, ctx.r, ctx) for a in range(ps)]
    bad = [f"projector {a} not in the torus" for a, mu in enumerate(mus) if mu.terms.keys() - {(0, 0)}]
    f = np.array([mu.terms.get((0, 0), np.zeros(ctx.q, dtype=np.int64)) for mu in mus])
    bad += [f"projector {a} not idempotent" for a in np.flatnonzero((f * f % p != f).any(axis=1))]
    support = f != 0
    overlap = np.triu(support @ support.T, 1)
    bad += [f"projectors {a},{b} not orthogonal" for a, b in np.argwhere(overlap)]
    if (f.sum(axis=0) % p != 1).any():
        bad.append("projectors do not sum to 1")
    return _result("weight-projectors", bad, f"{ps} projectors")


def _check_mu_binomial_form(ctx: AlgebraCtx) -> CheckResult:
    # indicator construction must agree with C(w - a - 1, p^s - 1); by the
    # periodicity lemma (module docstring) that is one row of p**s binomials,
    # C(n - 1, p^s - 1) for n < p**s, read at n = (w - a) mod p**s
    p, w = ctx.p, np.arange(ctx.q)
    bad = []
    for s in range(1, ctx.rprime + 1):
        ps = p**s
        row = np.array([binom_mod_p(n - 1, ps - 1, p) for n in range(ps)], dtype=np.int64)
        for a in range(ps):
            mu = weight_projector(a, s, ctx).terms.get((0, 0))
            formula = row[(w - a) % ps]
            if mu is None or not np.array_equal(mu, formula):
                bad.append(f"projector ({a}, depth {s}) != binomial formula")
    return _result("weight-projector-binomial-form", bad)


def _product_lemma_slice(ctx: AlgebraCtx, nus: list[int], a: int) -> np.ndarray:
    """t[k, b, c] = C(c,a) C(c,b) C(nu_k+a+b, a+b-c) for c <= a + b: the beta_c
    coordinate of beta_a beta_b in B_(nus[k]), by the product lemma (module
    docstring) and the Pascal table."""
    p, n, pas = ctx.p, ctx.xy_range, ctx.pascal
    b, c = np.arange(n)[:, None], np.arange(n)
    # The last factor is read only where C(c,a) C(c,b) != 0 mod p, which forces
    # 0 <= a + b - c <= min(a, b) (and, by Lucas, is rare).
    coef = pas[c, a] * pas[c, b] * (c <= a + b) % p
    bs, cs = np.nonzero(coef)
    nu_col = np.array(nus, dtype=np.int64)[:, None]
    t = np.zeros((len(nus), n, n), dtype=np.int64)
    t[:, bs, cs] = coef[bs, cs] * pas[(nu_col + a + bs) % ctx.q, a + bs - cs] % p
    return t


def weight_space_frobenius(ctx: AlgebraCtx, nus: list[int]) -> dict[int, np.ndarray]:
    """The Frobenius matrix of each B_nu, nu in nus: row a holds the
    coordinates of beta_a^p, by p - 1 left multiplications by beta_a."""
    p, n = ctx.p, ctx.xy_range
    frob = np.zeros((len(nus), n, n), dtype=np.int64)
    for a in range(n):
        # float64, because numpy sends float64 products to BLAS and int64 ones
        # to its own loop.  Exact: every entry is an integer below p, so a sum
        # of p**r products stays below p**r * p**2 <= 2**36 < 2**53
        # (p**r <= q <= 4096), and % p of such a float is exact.
        t = _product_lemma_slice(ctx, nus, a).astype(np.float64)
        power = np.zeros((len(nus), 1, n), dtype=np.float64)
        power[:, 0, a] = 1
        for _ in range(p - 1):
            power = power @ t % p
        frob[:, a] = power[:, 0]
    return dict(zip(nus, frob))


def weight_space_characters(ctx: AlgebraCtx) -> dict[int, tuple[list[tuple[int, int]], np.ndarray]]:
    """The characters of every B_nu, by the character lemma (module docstring).

    Maps each weight nu to (pairs, chi): the pairs (mu, i) with mu < q,
    v_i a basis vector of L(mu) and (mu - 2i) mod q = nu, and chi with
    chi[k, m] = chi_(pairs[k])(beta_m) = C(mu'-i+m, m) C(i, m) mod p.
    """
    p, n, q, pas = ctx.p, ctx.xy_range, ctx.q, ctx.pascal
    mu1, i = np.nonzero(pas[:n, :n])  # C(mu', i) != 0 mod p, so i <= mu'
    m = np.arange(n)
    # mu' - i + m <= mu' < q wherever C(i, m) != 0, that is for m <= i
    chi = pas[i[:, None], m] * pas[((mu1 - i)[:, None] + m) % q, m] % p
    by_nu: dict[int, tuple[list[tuple[int, int]], list[int]]] = {}
    for k, (a, b) in enumerate(zip(mu1.tolist(), i.tolist())):
        for mu in range(a, q, n):
            pairs, rows = by_nu.setdefault((mu - 2 * b) % q, ([], []))
            pairs.append((mu, b))
            rows.append(k)
    return {nu: (pairs, chi[rows]) for nu, (pairs, rows) in sorted(by_nu.items())}


def certify_decomposition(
    ctx: AlgebraCtx, labels: list[TupleLabel], elements: list[HyperElem]
) -> list[CheckResult]:
    """The basic suite's certificate of a labeled family of idempotents.

    Each element is read once (`weight_coords`); idempotency, orthogonality
    and primitivity are decided in the weight-space algebras B_nu by the
    character lemma (module docstring), and so is their sum.  A
    non-primitive idempotent fails the label count, named by its label.  An
    element outside the weight-space lemma's hypotheses fails idempotency,
    orthogonality, sum to one and `weights`, named by its label.  No product
    or sum of elements is formed.  Raises ValueError unless there is one
    element of ctx per label.
    """
    if len(labels) != len(elements):
        raise ValueError(f"{len(labels)} labels for {len(elements)} elements")
    if any(e.ctx != ctx for e in elements):
        raise ValueError(f"an element lies outside {ctx}")
    p = ctx.p
    names = [format_label(lb) for lb in labels]
    # one idempotent per unit of simple-module dimension, for each of the
    # p**(rprime - r) values of a': by Steinberg dim L(lam) = prod_k (lam_k + 1)
    # over the base-p digits of lam, so sum_{lam < p**r} dim L(lam) = (p(p+1)/2)**r
    simple_dim_sum = (p * (p + 1) // 2) ** ctx.r * p ** (ctx.rprime - ctx.r)
    bad_count = []
    if len(labels) != simple_dim_sum:
        bad_count.append(f"{len(labels)} labels, simple-dimension sum {simple_dim_sum}")

    # Weight-space lemma (module docstring): an element read into B_nu
    # satisfies e = mu_nu e mu_nu, so a pair of different weights has product
    # e_i mu_nu mu_nu' e_j = 0 and is decided without forming it; the pairs
    # within each weight are decided by the character lemma.
    unread, bad_weight = [], []
    by_weight: dict[int, list[int]] = {}
    rows: dict[int, list[np.ndarray]] = {}
    for i, (lb, name, e) in enumerate(zip(labels, names, elements)):
        try:
            nu, x = weight_coords(e)
        except ValueError as exc:
            unread.append(f"{name} {exc}")
            continue
        if nu != predicted_weight(lb, ctx):
            bad_weight.append(f"{name}: weight {nu} != {predicted_weight(lb, ctx)}")
        by_weight.setdefault(nu, []).append(i)
        rows.setdefault(nu, []).append(x)
    coords = {nu: np.array(xs) for nu, xs in rows.items()}
    frob = weight_space_frobenius(ctx, sorted(coords))
    chars = weight_space_characters(ctx)
    not_idem, unfixed, not_orth, not_primitive = [], [], [], []
    for nu, x in coords.items():
        idx = by_weight[nu]
        fixed = (x @ frob[nu] % p == x).all(axis=1)
        values = x @ chars[nu][1].T % p  # values[k, l] = chi_l(x_k)
        idem = fixed & (values <= 1).all(axis=1)
        hits = (values != 0) & fixed[:, None]  # a row that is not fixed decides nothing
        meet = (hits[:, None] & hits).any(axis=2)
        not_idem += [idx[k] for k in np.flatnonzero(~idem)]
        unfixed += [idx[k] for k in np.flatnonzero(~fixed)]
        not_orth += [(idx[k], idx[l]) for k, l in np.argwhere(meet) if k != l]
        not_primitive += [idx[k] for k in np.flatnonzero(idem & (hits.sum(axis=1) != 1))]
    bad_idem = unread + [f"{names[i]} not idempotent" for i in sorted(not_idem)]
    bad_orth = unread + [f"{names[i]} not Frobenius-fixed, products not decided" for i in sorted(unfixed)]
    bad_orth += [f"{names[i]} * {names[j]} != 0" for i, j in sorted(not_orth)]
    bad_count += [f"{names[i]} not primitive" for i in sorted(not_primitive)]

    # sum to one in coordinates (module docstring): each weight's rows sum to beta_0
    beta_0 = np.eye(1, ctx.xy_range, dtype=np.int64)[0]
    sums_to_one = len(coords) == ctx.q and all(
        np.array_equal(x.sum(axis=0) % p, beta_0) for x in coords.values()
    )
    # a sum with an unread element is not decided in coordinates
    bad_sum = unread or ([] if sums_to_one else ["sum differs from 1"])
    degrees = [sorted({mp_ - m for m, mp_ in e.terms}) for e in elements]
    bad_degree = [f"{name} has degrees {ds}" for name, ds in zip(names, degrees) if ds != [0]]
    return [
        _result("label-count", bad_count, f"{len(labels)} labels = sum of simple dimensions"),
        _result("idempotency", bad_idem, f"{len(elements)} elements"),
        _result("orthogonality", bad_orth, f"{len(elements) * (len(elements) - 1)} products"),
        _result("sum-to-one", bad_sum),
        _result("weights", unread + bad_weight),
        _result("degree-zero", bad_degree),
    ]


def _decomposition_checks(ctx: AlgebraCtx) -> list[CheckResult]:
    labels = enumerate_labels(ctx)
    return certify_decomposition(ctx, labels, [tuple_idempotent(lb, ctx) for lb in labels])


def _check_selector_partition(p: int) -> CheckResult:
    if p == 2:
        return CheckResult("selector-partition-of-unity", True, "table case, skipped")
    bad = []
    sels = [selector_poly(j, p) for j in range((p + 1) // 2)]
    total = Poly.zero(p)
    for s in sels:
        total = total + s
    if total != Poly.one(p):
        bad.append("selectors do not sum to 1")
    van = squares_poly(p)
    for mth, sm in enumerate(sels):
        for nth, sn in enumerate(sels):
            want = sm if mth == nth else Poly.zero(p)
            if (sm * sn - want) % van != Poly.zero(p):
                bad.append(f"selector product ({mth},{nth}) wrong mod vanishing poly")
    return _result("selector-partition-of-unity", bad)


def _check_squares_shift(p: int) -> CheckResult:
    if p == 2:
        return CheckResult("squares-shift-identity", True, "table case, skipped")
    bad = []
    van = squares_poly(p)
    half = inv_mod_p(2, p)
    for a in range(p):
        c = ((a + 1) * half) ** 2 % p
        if van.shifted_arg(c) != yx_power_poly(a, p, p):
            bad.append(f"a={a}")
    return _result("squares-shift-identity", bad)


def _check_min_power_forms(p: int) -> CheckResult:
    if p == 2:
        return CheckResult("min-power-closed-forms", True, "table case, skipped")
    bad = []
    for pr in all_pairs(p):
        got = min_power_by_division(pr.a, pr.two_j // 2, p)
        if got != min_yx_power(pr, p):
            bad.append(f"({pr.a},{pr.two_j}): division {got} != closed {min_yx_power(pr, p)}")
    return _result("min-power-closed-forms", bad)


def _check_expansion_double_path(p: int) -> CheckResult:
    ctx = AlgebraCtx(p, 1, 1)
    bad = []
    for pr in all_pairs(p):
        e = level1_idempotent(pr, ctx)
        yx = yx_expansion(e, pr.a)
        xy = xy_expansion(e, pr.a)
        if yx.coeffs != yx_coeff_table(pr, p):
            bad.append(f"({pr.a},{pr.two_j}) yx coefficients disagree")
        if xy.coeffs != xy_coeff_table(pr, p):
            bad.append(f"({pr.a},{pr.two_j}) xy coefficients disagree")
        if yx.min_power != min_yx_power(pr, p) or xy.min_power != min_xy_power(pr, p):
            bad.append(f"({pr.a},{pr.two_j}) leading index off")
    return _result("yx-expansion-double-path", bad)


def _check_yx_product_identity(p: int) -> CheckResult:
    # mu_a Y^m X^m equals the step product evaluated at mu_a Y X
    ctx = AlgebraCtx(p, 1, 1)
    bad = []
    yx = gen_y(1, ctx) * gen_x(1, ctx)
    for a in range(p):
        mu = weight_projector(a, 1, ctx)
        base = mu * yx
        for m in range(p):
            lhs = mu * y_power(m, ctx) * x_power(m, ctx)
            rhs = mu
            for i in range(m):
                rhs = rhs * (base - (i * (i + a + 1) % p) * one(ctx))
            if lhs != rhs:
                bad.append(f"a={a}, m={m}")
    return _result("yx-product-identity", bad)


def _check_commuting_family(ctx: AlgebraCtx) -> CheckResult:
    p = ctx.p
    bad = []
    prods = [gen_y(p**s, ctx) * gen_x(p**s, ctx) for s in range(ctx.r)]
    for s, us in enumerate(prods):
        for t, ut in enumerate(prods):
            if us * ut != ut * us:
                bad.append(f"YX powers {s},{t} do not commute")
    for n in range(ctx.q):
        h = gen_h_binom(n, ctx)
        for s, us in enumerate(prods):
            if us * h != h * us:
                bad.append(f"YX power {s} vs torus binomial {n}")
    return _result("commuting-yx-family", bad)


def _check_p_divided_center(ctx: AlgebraCtx) -> CheckResult:
    p = ctx.p
    if ctx.r < 2:
        return CheckResult("p-divided-powers-centralize", True, "needs r >= 2, skipped")
    gens_a1 = [gen_h_binom(k, ctx) for k in range(p)]
    gens_a1.append(gen_y(1, ctx) * gen_x(1, ctx))
    bad = []
    for n in range(1, p ** (ctx.r - 1)):
        for u in (gen_x(n * p, ctx), gen_y(n * p, ctx)):
            for aelt in gens_a1:
                if u * aelt != aelt * u:
                    bad.append(f"exponent {n * p}")
    return _result("p-divided-powers-centralize", bad)


def _check_window_identities(ctx: AlgebraCtx, rng: random.Random) -> CheckResult:
    p = ctx.p
    if ctx.r < 2:
        return CheckResult("frobenius-window-identities", True, "needs r >= 2, skipped")
    src = AlgebraCtx(p, ctx.r - 1, ctx.rprime - 1)
    bad = []
    for a in range(p):
        mu = weight_projector(a, 1, ctx)
        for b in range(a, p):
            for _ in range(3):
                z1, z2 = _rand_elem(rng, src, 2), _rand_elem(rng, src, 2)
                lhs = mu * fr_prime(z1) * fr_prime(z2) * x_power(b, ctx)
                rhs = mu * fr_prime(z1 * z2) * x_power(b, ctx)
                if lhs != rhs:
                    bad.append(f"product collapse fails at a={a}, b={b}")
    for pr in all_pairs(p):
        if pr.case not in ("A", "C"):
            continue
        s = recursion_shift(pr, p)
        mu = weight_projector(pr.a, 1, ctx)
        for m in range(min_yx_power(pr, p), p):
            window = mu * y_power(m, ctx) * x_power(m - s, ctx)
            for n in range(1, min(p ** (ctx.r - 1), 4)):
                for u in (gen_x(n * p, ctx), gen_y(n * p, ctx)):
                    if u * window != window * u:
                        bad.append(f"({pr.a},{pr.two_j}) m={m}: X/Y^(np) fails")
                h = gen_h_binom(n * p, ctx)
                hprev = gen_h_binom((n - 1) * p, ctx) if n > 1 else one(ctx)
                if window * h != (h + hprev) * window:
                    bad.append(f"({pr.a},{pr.two_j}) m={m}: torus intertwining fails")
    return _result("frobenius-window-identities", bad)


def _check_z_operator_laws(ctx: AlgebraCtx, rng: random.Random) -> CheckResult:
    p = ctx.p
    if ctx.r < 2:
        return CheckResult("lifting-operator-laws", True, "needs r >= 2, skipped")
    base = AlgebraCtx(p, 1, 1)
    tgt = AlgebraCtx(p, 2, 2)
    bad = []
    pairs = all_pairs(p)
    for pr in pairs:
        e_emb = embed(level1_idempotent(pr, base), tgt)
        if z_operator(one(base), pr) != e_emb:
            bad.append(f"unit image off for ({pr.a},{pr.two_j})")
        for _ in range(4):
            z1 = _rand_elem(rng, base, 2)
            z2 = _rand_elem(rng, base, 2)
            zz = z_operator(z1, pr)
            if zz * z_operator(z2, pr) != z_operator(z1 * z2, pr):
                bad.append(f"multiplicativity fails for ({pr.a},{pr.two_j})")
            if e_emb * zz != zz or zz * e_emb != zz:
                bad.append(f"corner containment fails for ({pr.a},{pr.two_j})")
            if gen_x(p, tgt) * zz != z_operator(gen_x(1, base) * z1, pr):
                bad.append(f"X descent fails for ({pr.a},{pr.two_j})")
            if gen_y(p, tgt) * zz != z_operator(gen_y(1, base) * z1, pr):
                bad.append(f"Y descent fails for ({pr.a},{pr.two_j})")
    for pr1 in pairs:
        for pr2 in pairs:
            if pr1 == pr2:
                continue
            z1 = _rand_elem(rng, base, 2)
            z2 = _rand_elem(rng, base, 2)
            if not (z_operator(z1, pr1) * z_operator(z2, pr2)).is_zero():
                bad.append(f"cross product not zero: ({pr1.a},{pr1.two_j}) vs ({pr2.a},{pr2.two_j})")
    return _result("lifting-operator-laws", bad)


def _check_telescoping(ctx: AlgebraCtx) -> CheckResult:
    if ctx.r < 2:
        return CheckResult("partial-sum-telescoping", True, "needs r >= 2, skipped")
    p = ctx.p
    inner_ctx = AlgebraCtx(p, ctx.r, ctx.r)
    bad = []
    for pr0 in all_pairs(p):
        total = zero(inner_ctx)
        for inner in itertools.product(all_pairs(p), repeat=ctx.r - 1):
            total = total + tuple_idempotent(TupleLabel((pr0, *inner), None), inner_ctx)
        if total != embed(level1_idempotent(pr0, AlgebraCtx(p, 1, 1)), inner_ctx):
            bad.append(f"inner sum misses the level-1 idempotent of ({pr0.a},{pr0.two_j})")
    return _result("partial-sum-telescoping", bad)


def _check_frobenius_roundtrip(ctx: AlgebraCtx) -> CheckResult:
    bad = []
    for m in range(ctx.xy_range):
        for mp_ in range(ctx.xy_range):
            for n in range(ctx.q):
                u = pbw_elem(m, n, mp_, ctx)
                if fr(fr_prime(u)) != u:
                    bad.append(f"basis ({m},{n},{mp_})")
    return _result("frobenius-splitting-roundtrip", bad, f"{ctx.xy_range**2 * ctx.q} basis elements")


def _check_associativity(ctx: AlgebraCtx, rng: random.Random, trials: int = 200) -> CheckResult:
    # (u v) w against u (v w), a group of trials per `products` call: a
    # trial's four products hold about 8p contributions (16 at (3,2,2), 34
    # at (5,2,2), 67 at (7,2,2)), so a group is about one kernel pass.  The
    # draws keep their order: u, v, w, trial by trial.
    bad = []
    group = max(1, PASS_ENTRIES // (8 * ctx.p * ctx.q))
    for start in range(0, trials, group):
        uvw = [
            tuple(_rand_elem(rng, ctx, 2) for _ in range(3))
            for _ in range(min(group, trials - start))
        ]
        firsts = products(pair for u, v, w in uvw for pair in ((u, v), (v, w)))
        seconds = products(
            pair
            for (u, _, w), uv, vw in zip(uvw, firsts[::2], firsts[1::2])
            for pair in ((uv, w), (u, vw))
        )
        for k, left, right in zip(itertools.count(start), seconds[::2], seconds[1::2]):
            if left != right:
                bad.append(f"trial {k}")
    return _result("associativity", bad, f"{trials} random triples")


def _check_oracle(ctx: AlgebraCtx, rng: random.Random, pairs_per_weight: int = 3) -> CheckResult:
    p = ctx.p
    bad = []
    for lam in range(2 * ctx.xy_range - 1):
        for _ in range(pairs_per_weight):
            u = _rand_elem(rng, ctx, 2)
            v = _rand_elem(rng, ctx, 2)
            if not np.array_equal(weyl_action(u * v, lam), weyl_action(u, lam) @ weyl_action(v, lam) % p):
                bad.append(f"highest weight {lam}")
    return _result("multiplication-oracle", bad, f"weights 0..{2 * ctx.xy_range - 2}")


def _check_product_independence(p: int) -> CheckResult:
    # products of the depth-1 basis with the exponent-raised depth-1 basis
    # span the depth-2 algebra
    if p > 3:
        return CheckResult("split-product-independence", True, "skipped for p > 3 (size)")
    big = AlgebraCtx(p, 2, 2)
    small = AlgebraCtx(p, 1, 1)
    exps = list(itertools.product(range(p), repeat=3))
    us = [pbw_elem(m, n, mp_, big) for m, n, mp_ in exps]
    vs = [fr_prime(pbw_elem(m, n, mp_, small)) for m, n, mp_ in exps]
    basis = IdealBasis()
    for uv in products((u, v) for u in us for v in vs):
        basis.add(uv)
    rank = basis.dim
    ok = rank == p**6
    return _result(
        "split-product-independence",
        [] if ok else [f"rank {rank} != {p**6}"],
        f"{p**6} products",
    )


def _check_top_x(ctx: AlgebraCtx) -> CheckResult:
    if ctx.xy_range > 32:
        return CheckResult("top-x-exponent", True, "skipped for p^r > 32 (size)")
    bad = []
    for lb in enumerate_labels(ctx):
        e = tuple_idempotent(lb, ctx)
        t = top_x_exponent(e)
        if t != predicted_top_x(lb, ctx.p):
            bad.append(f"{format_label(lb)}: {t} != {predicted_top_x(lb, ctx.p)}")
    return _result("top-x-exponent", bad)


def _check_pim_census(ctx: AlgebraCtx) -> CheckResult:
    """Left-ideal dimensions of every idempotent, which must sum to dim A.

    Census lemma: this certifies idempotency and orthogonality by a second
    route, independent of the weight-space lemma.  Sum-to-one gives
    sum_i e_i = 1, so A = sum_i A e_i.  The dimensions add up to dim A, so
    that sum is direct.  Writing e_j = sum_i e_j e_i, with e_j e_i in A e_i,
    then forces e_j e_i = delta_ij e_j.
    """
    ambient = ctx.xy_range**2 * ctx.q
    if ambient > 20000:
        return CheckResult("pim-census", True, f"skipped for ambient dim {ambient} (size)")
    rows = pim_rows(ctx)
    bad = [f"{row['label']}: {row['status']}" for row in rows if row["status"] != "PASS"]
    census = sum(row["computed_dim"] for row in rows)
    if census != ambient:
        bad.append(f"census {census} != {ambient}")
    return _result("pim-census", bad, f"census {census} = ambient dim")


def _check_roundtrips(ctx: AlgebraCtx, rng: random.Random) -> CheckResult:
    bad = []
    for lb in enumerate_labels(ctx)[: 8]:
        e = tuple_idempotent(lb, ctx)
        if element_from_json(element_to_json(e)) != e:
            bad.append(f"json round trip fails for {format_label(lb)}")
    for _ in range(20):
        f = np.array([rng.randrange(ctx.p) for _ in range(ctx.q)], dtype=np.int64)
        if not np.array_equal(coeffs_to_weightfn(weightfn_to_coeffs(f, ctx), ctx), f):
            bad.append("weight-function basis round trip fails")
        # exponent-raising in evaluation form vs through the binomial basis
        lifted = AlgebraCtx(ctx.p, ctx.r + 1, ctx.rprime + 1)
        via_eval = fr_prime(HyperElem(ctx, {(0, 0): f})).terms.get((0, 0))
        coeffs = weightfn_to_coeffs(f, ctx)
        spread = np.zeros(lifted.q, dtype=np.int64)
        spread[:: ctx.p] = coeffs
        via_coeffs = coeffs_to_weightfn(spread, lifted)
        if via_eval is None:
            via_eval = np.zeros(lifted.q, dtype=np.int64)
        if not np.array_equal(via_eval, via_coeffs):
            bad.append("exponent-raising paths disagree")
    return _result("round-trips", bad)


def run_suite(ctx: AlgebraCtx, suite: str = "basic", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named suite on a context and collect per-check results."""
    if suite not in ("basic", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    results = [_check_mu_projectors(ctx), _check_mu_binomial_form(ctx)]
    results += _decomposition_checks(ctx)
    if suite == "full":
        p = ctx.p
        results += [
            _check_selector_partition(p),
            _check_squares_shift(p),
            _check_min_power_forms(p),
            _check_expansion_double_path(p),
            _check_yx_product_identity(p),
            _check_commuting_family(ctx),
            _check_p_divided_center(ctx),
            _check_window_identities(ctx, rng),
            _check_z_operator_laws(ctx, rng),
            _check_telescoping(ctx),
            _check_frobenius_roundtrip(ctx),
            _check_associativity(ctx, rng),
            _check_oracle(ctx, rng),
            _check_product_independence(p),
            _check_top_x(ctx),
            _check_pim_census(ctx),
            _check_roundtrips(ctx, rng),
        ]
    return results
