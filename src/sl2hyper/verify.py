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
  included.

So each idempotent is read into p**r scalars, and no product of the
algebra is formed after construction.  `orthogonality` decides its N(N-1)
ordered products by two routes: the weight-space lemma for each pair of
different weights, and one contraction of coordinates with the structure
constants for each pair of the same weight (which also gives the squares
that `idempotency` compares).  `sum-to-one` reads coordinates too: the
beta_m of all weights nu are distinct basis elements Y^(m) delta_w X^(m),
w = nu + 2m, and 1 = sum_nu beta_0, so the idempotents sum to 1 exactly
when every weight mod q occurs and each weight's rows sum to beta_0.

The same constants certify primitivity by Berlekamp's count ("Factoring
polynomials over finite fields", Bell Syst. Tech. J., 1967), which needs
B_nu to be commutative.  The product lemma is symmetric in a and b, so
beta_a beta_b = beta_b beta_a, and Frob: x |-> x^p is F_p-linear on B_nu.
dim ker(Frob - 1) is the number of local factors of B_nu, and rank Frob^r
is dim B_nu / rad, because a nilpotent x in the p**r-dimensional B_nu has
x^(p**r) = 0.  The weight-nu idempotents are nonzero, orthogonal and sum
to mu_nu, the unit of B_nu.
When both counts equal their number N_nu, each one is the unit of one
local factor whose residue field is F_p, so it is primitive over the
algebraic closure of F_p.  For p odd, or p = 2 with r < rprime,
mu_nu A mu_nu = B_nu: a term Y^(m) f X^(m') survives between two copies of
mu_nu only when 2(m' - m) = 0 mod q, and |m' - m| < p**r then forces
m' = m.  So e A e = e B_nu and the idempotents are primitive in A.  For
p = 2 with r = rprime, mu_nu A mu_nu has parts of degree +-q/2, and the
label count from theory stays the certificate.

`weight-projectors` rests on the *pointwise lemma*: torus-only elements
multiply pointwise in evaluation form (two (0, 0) terms meet at i = 0
alone, with coefficient 1 and no shift).  So a 0/1 factor is idempotent,
factors are orthogonal exactly when their supports are disjoint (p is
prime), and factors that partition Z/q sum to 1.

Each check returns a CheckResult; nothing here prints or exits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .algebra import (
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
    "weight_space_products",
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
    # indicator construction must agree with C(w - a - 1, p^s - 1)
    bad = []
    for s in range(1, ctx.rprime + 1):
        ps = ctx.p**s
        for a in range(ps):
            mu = weight_projector(a, s, ctx).terms.get((0, 0))
            formula = np.array(
                [binom_mod_p(w - a - 1, ps - 1, ctx.p) for w in range(ctx.q)],
                dtype=np.int64,
            )
            if mu is None or not np.array_equal(mu, formula):
                bad.append(f"projector ({a}, depth {s}) != binomial formula")
    return _result("weight-projector-binomial-form", bad)


def weight_space_products(
    ctx: AlgebraCtx, coords: dict[int, np.ndarray]
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """All products within each weight space, and its Frobenius matrix.

    coords maps a weight nu to an (N, p**r) array whose rows are elements
    of B_nu in the basis beta_m.  Returns prods with prods[nu][i, j] the
    coordinates of x_i x_j, and frob with row a of frob[nu] those of
    beta_a^p.  Left multiplication by each beta_a is built from the
    product lemma (module docstring) and the Pascal table, one a at a time.
    """
    p, n, pas = ctx.p, ctx.xy_range, ctx.pascal
    nus = sorted(coords)
    prods = {nu: np.zeros((len(coords[nu]), len(coords[nu]), n), dtype=np.int64) for nu in nus}
    frob = np.zeros((len(nus), n, n), dtype=np.int64)
    b, c = np.arange(n)[:, None], np.arange(n)
    nu_col = np.array(nus, dtype=np.int64)[:, None]
    for a in range(n):
        # t[k, b, c] = C(c,a) C(c,b) C(nu_k+a+b, a+b-c) for c <= a + b: the
        # beta_c coordinate of beta_a beta_b in B_nu_k.  The last factor is
        # read only where C(c,a) C(c,b) != 0 mod p, which forces
        # 0 <= a + b - c <= min(a, b) (and, by Lucas, is rare).
        # Exact in int64: every product and sum below is of entries below p
        # and reduced mod p at once, so a sum of p**r products stays below
        # p**r * p**2 <= 2**36 (p**r <= q <= 4096).
        coef = pas[c, a] * pas[c, b] * (c <= a + b) % p
        bs, cs = np.nonzero(coef)
        t = np.zeros((len(nus), n, n), dtype=np.int64)
        t[:, bs, cs] = coef[bs, cs] * pas[(nu_col + a + bs) % ctx.q, a + bs - cs] % p
        for k, nu in enumerate(nus):
            x = coords[nu]
            # x_i x_j = sum_a x_i[a] (beta_a x_j)
            left = x @ t[k] % p
            prods[nu] += x[:, a, None, None] * left
            prods[nu] %= p
        # beta_a^p by p - 1 left multiplications by beta_a, in every B_nu at once
        power = np.zeros((len(nus), 1, n), dtype=np.int64)
        power[:, 0, a] = 1
        for _ in range(p - 1):
            power = power @ t % p
        frob[:, a] = power[:, 0]
    return prods, dict(zip(nus, frob))


def _rank(mat: np.ndarray, p: int) -> int:
    basis = IdealBasis()
    for row in mat.tolist():
        basis.add_coords({c: v for c, v in enumerate(row) if v}, p)
    return basis.dim


def _berlekamp_counts(frob: np.ndarray, ctx: AlgebraCtx) -> tuple[int, int]:
    """(dim ker(Frob - 1), rank Frob^r) on B_nu, from its Frobenius matrix."""
    p, n = ctx.p, ctx.xy_range
    power = frob
    for _ in range(ctx.r - 1):
        power = power @ frob % p  # entries below p: sums below p**r * p**2
    return n - _rank((frob - np.eye(n, dtype=np.int64)) % p, p), _rank(power, p)


def certify_decomposition(
    ctx: AlgebraCtx, labels: list[TupleLabel], elements: list[HyperElem]
) -> list[CheckResult]:
    """The basic suite's certificate of a labeled family of idempotents.

    Each element is read once (`weight_coords`); idempotency and
    orthogonality are decided in the weight-space algebras B_nu (module
    docstring), and so is their sum.  An element outside the weight-space
    lemma's hypotheses fails those three and `weights`, named by its label.
    No product or sum of elements is formed.  For p odd or r < rprime the
    Berlekamp counts of every B_nu join the label count.  Raises ValueError
    unless there is one element of ctx per label.
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
    # e_i mu_nu mu_nu' e_j = 0 and is decided without forming it; only the
    # products within each weight are computed, in coordinates.
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
    # Berlekamp: see the module docstring for why p = 2 with r = rprime is left out
    berlekamp = p % 2 or ctx.r < ctx.rprime
    bad_idem, bad_orth = list(unread), list(unread)
    prods, frob = weight_space_products(ctx, coords)
    not_idem, not_orth = [], []
    for nu, prod in prods.items():
        idx = by_weight[nu]
        diag = np.arange(len(idx))
        not_idem += [idx[k] for k in np.flatnonzero((prod[diag, diag] != coords[nu]).any(axis=1))]
        nonzero = prod.any(axis=2)
        nonzero[diag, diag] = False
        not_orth += [(idx[k], idx[l]) for k, l in np.argwhere(nonzero)]
    bad_idem += [f"{names[i]} not idempotent" for i in sorted(not_idem)]
    bad_orth += [f"{names[i]} * {names[j]} != 0" for i, j in sorted(not_orth)]
    if berlekamp:
        for nu, f in frob.items():
            ker, rank = _berlekamp_counts(f, ctx)
            count = len(by_weight[nu])
            if ker != count or rank != count:
                bad_count.append(f"weight {nu}: {count} idempotents, ker {ker}, rank {rank}")

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
            if z_operator(z1, pr) * z_operator(z2, pr) != z_operator(z1 * z2, pr):
                bad.append(f"multiplicativity fails for ({pr.a},{pr.two_j})")
            zz = z_operator(z1, pr)
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
    bad = []
    for k in range(trials):
        u = _rand_elem(rng, ctx, 2)
        v = _rand_elem(rng, ctx, 2)
        w = _rand_elem(rng, ctx, 2)
        if (u * v) * w != u * (v * w):
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
    basis = IdealBasis()
    for m1 in range(p):
        for n1 in range(p):
            for m1p in range(p):
                u = pbw_elem(m1, n1, m1p, big)
                for m2 in range(p):
                    for n2 in range(p):
                        for m2p in range(p):
                            basis.add(u * fr_prime(pbw_elem(m2, n2, m2p, small)))
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
