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
  Here a + b - c < p**r, so by the periodicity lemma (below) the last
  factor depends on nu + a + b mod p**r only, and so B_nu's structure
  constants and Frobenius matrix depend on nu mod p**r only: the
  certificate forms that matrix once per residue.  This holds for every p,
  p = 2 with r = rprime included.  The formula is symmetric in a and b,
  so B_nu is commutative and Frob: x |-> x^p is F_p-linear on B_nu; row a
  of its matrix is beta_a^p, formed by p - 1 left multiplications by beta_a.
* the *support lemma* keeps those multiplications small.  By Lucas,
  C(c,a) != 0 mod p exactly when c >= a digit by digit, so by the product
  lemma beta_a beta_b lies in the span of the beta_c with c in
  S_a = {c >= a digitwise}, and so does every power of beta_a.  Row a of
  Frob needs S_a x S_a alone; |S_a| = prod_k (p - a_k), and S_a[0] = a.

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

So each idempotent is p**r scalars, its row (nu, x) of
`idempotents.tuple_coords` (the tensor lemma), and the basic suite
certifies those rows: it builds no element and forms no product of the
algebra.  `certify_decomposition` reads a given family into the same rows
with `weight_coords`, and both run one certificate.  `orthogonality`
decides its N(N-1) ordered products by the weight-space lemma for each
pair of different weights and by the characters for each pair of the
same weight.  A row
that is not Frobenius-fixed is not idempotent (x^2 = x gives x^p = x), and
its products are not decided.  A non-primitive idempotent fails
`label-count`.  So does a primitive x_k whose one character chi_(mu,i) = 1
is not at mu = lambda' + p**r lambda'' of its label
(`pims.pim_label_closed_form`): x_k L(mu) != 0, so A x_k is the projective
cover P(mu).  `sum-to-one` reads coordinates too: the beta_m of all
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

`frobenius-splitting-roundtrip` rests on the *digit-probe lemma*.

* Premise.  fr and fr' act on positions only.  A position is a pair
  (key, w) of a key (m, m') with m, m' < p**r and a weight w < q.  fr'
  sends key (m, m') to (pm, pm') and gives it the row g(w) = f(w // p)
  (`np.repeat`); fr keeps the keys that p divides, sends them to
  (m/p, m'/p) and reads the row f(pw) (`[::p]`); both end in `_finish`,
  which reduces mod p and drops zero rows.  So fr fr' moves the term at
  key K to key kappa(K), and reads the new row at w from the old row at
  gamma(w), for an injective partial key map kappa and a weight map gamma
  that are fixed and do not depend on the values.  The round trip is the
  identity on A exactly when kappa and gamma are the identity.
* Probes.  Number each position P = (m p**r + m') q + w, so
  P < p**(2r+rprime).  Probe k, for k < 2r + rprime, is the element whose
  value at P is the k-th base-p digit d_k(P).  Every value lies in
  [0, p), so reduction mod p changes nothing, and a key whose row is all
  zero is absent, on both sides of the comparison.
* Weight probes, k < rprime: every key has the row d_k(w), which is
  nonzero (at w = p**k).  If they are fixed, every key has a preimage, so
  kappa is a permutation, and d_k(gamma(w)) = d_k(w) for every digit, so
  gamma is the identity.
* Key probes, rprime <= k: the row at key K is the constant d_k(P), a
  digit of m' (X exponent) or of m (Y exponent), so any gamma keeps it,
  and kappa(K) receives the constant of K.  If they are fixed, every
  digit of kappa(K) equals the same digit of K, so kappa is the identity.

So the 2r + rprime probes cover all p**(2r+rprime) basis elements.  The
weight probes alone are not enough: they hold the same row at every key
and cannot see a permutation of keys such as (m, m') -> (m', m).  A
fault that depends on the values, not on the positions, lies outside the
premise; the tests keep the loop over every basis element as the oracle.

The checks that multiply random elements (`frobenius-window-identities`,
`lifting-operator-laws`, `associativity`, `multiplication-oracle`) draw
them in a fixed order, form each layer of products that depend only on
earlier layers in one `products` call (the lifts through
`idempotents.z_operators`, one call per pair), and read their failures in
the order of the draws.  A window identity or lifting law is a list of
chains of factors that must multiply to equal elements (`_failed_laws`).
`split-product-independence` ranks its products through one
`IdealBasis.add_all`.  `top-x-exponent`, `partial-sum-telescoping` and
`pim-census` read their idempotents from one `tuple_coords` call and
build each element from its row only as they use it.

Each check returns its failures and the detail of a pass; `run_suite`'s
table names every check, fixes the order and states each skip rule once.
Nothing here prints or exits.
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
    from_weight_coords,
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
    tuple_coords,
    tuple_idempotent,
    weight_projector,
    xy_coeff_table,
    xy_expansion,
    yx_coeff_table,
    yx_expansion,
    z_operators,
)
from .modp import binom_mod_p, inv_mod_p
from .pims import (
    IdealBasis,
    pim_label_closed_form,
    pim_rows,
    predicted_top_x,
    predicted_weight,
    top_x_exponent,
    weyl_action,
)

DEFAULT_SEED = 20240601
_TRIALS = 200  # random triples of the associativity check
_PAIRS_PER_WEIGHT = 3  # random pairs per highest weight of the Weyl oracle

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
    coeffs: dict[tuple[int, int], np.ndarray] = {}
    for _ in range(nterms):
        m = rng.randrange(ctx.xy_range)
        mp_ = rng.randrange(ctx.xy_range)
        n = rng.randrange(ctx.q)
        coeffs.setdefault((m, mp_), np.zeros(ctx.q, dtype=np.int64))[n] += rng.randrange(1, ctx.p)
    return HyperElem(ctx, dict(zip(coeffs, coeffs_to_weightfn(np.array(list(coeffs.values())), ctx))))


def _check_mu_projectors(ctx: AlgebraCtx) -> tuple[list[str], str]:
    # pointwise lemma (module docstring): the (0, 0) factors are read, not multiplied
    p, ps = ctx.p, ctx.p**ctx.r
    terms = [weight_projector(a, ctx.r, ctx).terms for a in range(ps)]
    bad = [f"projector {a} not in the torus" for a, t in enumerate(terms) if t.keys() - {(0, 0)}]
    # widened: the stored factors are int16, and f * f overflows it once p >= 182
    zeros = np.zeros(ctx.q, dtype=np.int64)
    f = np.array([t.get((0, 0), zeros) for t in terms], dtype=np.int64)
    bad += [f"projector {a} not idempotent" for a in np.flatnonzero((f * f % p != f).any(axis=1))]
    support = f != 0
    overlap = np.triu(support @ support.T, 1)
    bad += [f"projectors {a},{b} not orthogonal" for a, b in np.argwhere(overlap)]
    if (f.sum(axis=0) % p != 1).any():
        bad.append("projectors do not sum to 1")
    return bad, f"{ps} projectors"


def _check_mu_binomial_form(ctx: AlgebraCtx) -> tuple[list[str], str]:
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
    return bad, ""


def _product_lemma_slice(ctx: AlgebraCtx, nus: list[int], a: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, t): s = S_a, the c >= a digit by digit, and t[k, j, l] =
    C(c,a) C(c,b) C(nu_k+a+b, a+b-c) at b = s[j], c = s[l]: the beta_c
    coordinate of beta_a beta_b in B_(nus[k]), by the product and support
    lemmas (module docstring) and the Pascal table."""
    p, n, pas = ctx.p, ctx.xy_range, ctx.pascal
    s = np.flatnonzero(pas[:, a])
    b, c = s[:, None], s
    # The last factor is read only where C(c,a) C(c,b) != 0 mod p, which forces
    # 0 <= a + b - c <= min(a, b) (and, by Lucas, is rare).
    coef = pas[c, a] * pas[c, b] * (c <= a + b) % p
    js, ls = np.nonzero(coef)
    bs, cs = s[js], s[ls]
    nu_col = np.array(nus, dtype=np.int64)[:, None]
    t = np.zeros((len(nus), len(s), len(s)), dtype=np.int64)
    t[:, js, ls] = coef[js, ls] * pas[(nu_col + a + bs) % n, a + bs - cs] % p
    return s, t


def weight_space_frobenius(ctx: AlgebraCtx, nus: list[int]) -> dict[int, np.ndarray]:
    """The Frobenius matrix of each B_nu, nu in nus: row a holds the
    coordinates of beta_a^p, by p - 1 left multiplications by beta_a.  By
    the support lemma (module docstring) they stay on S_a, so each
    multiplication is one |S_a| x |S_a| slice."""
    p, n = ctx.p, ctx.xy_range
    frob = np.zeros((len(nus), n, n), dtype=np.int64)
    for a in range(n):
        s, t = _product_lemma_slice(ctx, nus, a)
        # exact in int64: a sum of |S_a| <= p**r products below p**2
        power = np.zeros((len(nus), 1, len(s)), dtype=np.int64)
        power[:, 0, 0] = 1  # s[0] = a
        for _ in range(p - 1):
            power = power @ t % p
        frob[:, a, s] = power[:, 0]
    return dict(zip(nus, frob))


def weight_space_characters(ctx: AlgebraCtx) -> dict[int, tuple[list[tuple[int, int]], np.ndarray]]:
    """The characters of every B_nu, by the character lemma (module docstring).

    Maps each weight nu to (pairs, chi): the pairs (mu, i) with mu < q,
    v_i a basis vector of L(mu) and (mu - 2i) mod q = nu, and chi with
    chi[k, m] = chi_(pairs[k])(beta_m) = C(mu'-i+m, m) C(i, m) mod p.
    """
    p, n, q, pas = ctx.p, ctx.xy_range, ctx.q, ctx.pascal
    mu1, i = np.nonzero(pas)  # C(mu', i) != 0 mod p, so i <= mu'
    m = np.arange(n)
    # m < p**r, so C(mu' - i + m, m) is read mod p**r (periodicity lemma)
    chi = pas[i[:, None], m] * pas[((mu1 - i)[:, None] + m) % n, m] % p
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

    Each element is read once (`weight_coords`) into its B_nu coordinates,
    and the certificate is decided on them (`_certificate`): idempotency,
    orthogonality and primitivity in the weight-space algebras B_nu by the
    character lemma (module docstring), and so is their sum.  A
    non-primitive idempotent fails the label count, named by its label, and
    so does a primitive one whose projective cover is not the label's
    `pim_label_closed_form`.  An
    element outside the weight-space lemma's hypotheses fails idempotency,
    orthogonality, sum to one and `weights`, named by its label.  No product
    or sum of elements is formed.  Raises ValueError unless there is one
    element of ctx per label.
    """
    if len(labels) != len(elements):
        raise ValueError(f"{len(labels)} labels for {len(elements)} elements")
    if any(e.ctx != ctx for e in elements):
        raise ValueError(f"an element lies outside {ctx}")
    coords: list[tuple[int, np.ndarray] | str] = []
    for e in elements:
        try:
            coords.append(weight_coords(e))
        except ValueError as exc:
            coords.append(str(exc))
    degrees = [sorted({mp_ - m for m, mp_ in e.terms}) for e in elements]
    return _certificate(ctx, labels, coords, degrees)


# The certificate forms the Frobenius matrices of about this many int64
# entries at a time: max(1, _FROB_ENTRIES // p**(2r)) residues mod p**r.
_FROB_ENTRIES = 1 << 20


def _certificate(
    ctx: AlgebraCtx, labels: list[TupleLabel], coords: list, degrees: list[list[int]]
) -> list[CheckResult]:
    """The certificate of `certify_decomposition` on coordinates: coords[i]
    is labels[i]'s (nu, x), with x of length p**r and entries in 0..p-1, or
    the reason its element could not be read, and degrees[i] is the sorted
    list of that element's degrees.  `run_suite` passes the rows of
    `tuple_coords`, of degree 0 by construction.

    By the periodicity lemma (module docstring) the Frobenius matrix of B_nu
    depends on nu mod p**r only, so it is formed once per residue that
    occurs, a bounded number of residues at a time (`_FROB_ENTRIES`), and
    every weight of a chunk is decided before the next chunk is formed.
    """
    p, ps = ctx.p, ctx.xy_range
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
    weights = [predicted_weight(lb, ctx) for lb in labels]
    by_weight: dict[int, list[int]] = {}
    for i, (name, c) in enumerate(zip(names, coords)):
        if isinstance(c, str):
            unread.append(f"{name} {c}")
            continue
        nu = c[0]
        if nu != weights[i]:
            bad_weight.append(f"{name}: weight {nu} != {weights[i]}")
        by_weight.setdefault(nu, []).append(i)
    by_residue: dict[int, list[int]] = {}
    for nu in by_weight:
        by_residue.setdefault(nu % ps, []).append(nu)
    residues = sorted(by_residue)
    step = max(1, _FROB_ENTRIES // ps**2)
    chars = weight_space_characters(ctx)
    # sum to one in coordinates (module docstring): each weight's rows sum to beta_0
    beta_0 = np.eye(1, ps, dtype=np.int64)[0]
    sums_to_one = len(by_weight) == ctx.q
    not_idem, unfixed, not_orth, not_primitive, bad_cover = [], [], [], [], []
    for lo in range(0, len(residues), step):
        for res, frob in weight_space_frobenius(ctx, residues[lo : lo + step]).items():
            for nu in by_residue[res]:
                idx = by_weight[nu]
                x = np.array([coords[i][1] for i in idx], dtype=np.int64)
                fixed = (x @ frob % p == x).all(axis=1)
                values = x @ chars[nu][1].T % p  # values[k, l] = chi_l(x_k)
                idem = fixed & (values <= 1).all(axis=1)
                hits = (values != 0) & fixed[:, None]  # a row that is not fixed decides nothing
                meet = (hits[:, None] & hits).any(axis=2)
                not_idem += [idx[k] for k in np.flatnonzero(~idem)]
                unfixed += [idx[k] for k in np.flatnonzero(~fixed)]
                not_orth += [(idx[k], idx[l]) for k, l in np.argwhere(meet) if k != l]
                not_primitive += [idx[k] for k in np.flatnonzero(idem & (hits.sum(axis=1) != 1))]
                # identification: chi_(mu,i) = 1 on a primitive e gives e L(mu) != 0, so A e
                # is the projective cover P(mu); a row off its label's weight fails `weights`
                for k in np.flatnonzero(idem & (hits.sum(axis=1) == 1)):
                    j, mu = idx[k], chars[nu][0][hits[k].argmax()][0]
                    pl = pim_label_closed_form(labels[j], ctx)
                    want = pl.lambda_prime + ps * pl.lambda_double_prime
                    if nu == weights[j] and mu != want:
                        bad_cover.append((j, f"{names[j]}: cover P({mu}) != P({want})"))
                sums_to_one = sums_to_one and np.array_equal(x.sum(axis=0) % p, beta_0)
    bad_idem = unread + [f"{names[i]} not idempotent" for i in sorted(not_idem)]
    bad_orth = unread + [f"{names[i]} not Frobenius-fixed, products not decided" for i in sorted(unfixed)]
    bad_orth += [f"{names[i]} * {names[j]} != 0" for i, j in sorted(not_orth)]
    bad_count += [f"{names[i]} not primitive" for i in sorted(not_primitive)]
    bad_count += [msg for _, msg in sorted(bad_cover)]
    # a sum with an unread element is not decided in coordinates
    bad_sum = unread or ([] if sums_to_one else ["sum differs from 1"])
    bad_degree = [f"{name} has degrees {ds}" for name, ds in zip(names, degrees) if ds != [0]]
    return [
        _result("label-count", bad_count, f"{len(labels)} labels = sum of simple dimensions"),
        _result("idempotency", bad_idem, f"{len(coords)} elements"),
        _result("orthogonality", bad_orth, f"{len(coords) * (len(coords) - 1)} products"),
        _result("sum-to-one", bad_sum),
        _result("weights", unread + bad_weight),
        _result("degree-zero", bad_degree),
    ]


def _check_selector_partition(p: int) -> tuple[list[str], str]:
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
    return bad, ""


def _check_squares_shift(p: int) -> tuple[list[str], str]:
    bad = []
    van = squares_poly(p)
    half = inv_mod_p(2, p)
    for a in range(p):
        c = ((a + 1) * half) ** 2 % p
        if van.shifted_arg(c) != yx_power_poly(a, p, p):
            bad.append(f"a={a}")
    return bad, ""


def _check_min_power_forms(p: int) -> tuple[list[str], str]:
    bad = []
    for pr in all_pairs(p):
        got = min_power_by_division(pr.a, pr.two_j // 2, p)
        if got != min_yx_power(pr, p):
            bad.append(f"({pr.a},{pr.two_j}): division {got} != closed {min_yx_power(pr, p)}")
    return bad, ""


def _check_expansion_double_path(p: int) -> tuple[list[str], str]:
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
    return bad, ""


def _check_yx_product_identity(p: int) -> tuple[list[str], str]:
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
    return bad, ""


def _check_commuting_family(ctx: AlgebraCtx) -> tuple[list[str], str]:
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
    return bad, ""


def _check_p_divided_center(ctx: AlgebraCtx) -> tuple[list[str], str]:
    p = ctx.p
    gens_a1 = [gen_h_binom(k, ctx) for k in range(p)]
    gens_a1.append(gen_y(1, ctx) * gen_x(1, ctx))
    bad = []
    for n in range(1, p ** (ctx.r - 1)):
        for u in (gen_x(n * p, ctx), gen_y(n * p, ctx)):
            for aelt in gens_a1:
                if u * aelt != aelt * u:
                    bad.append(f"exponent {n * p}")
    return bad, ""


def _failed_laws(laws: list[tuple[str, list[tuple]]]) -> list[str]:
    """The failure of each law (failure, chains), in order, whose chains'
    products f1 * f2 * ..., each multiplied left to right, are not all
    equal; a chain of one element is that element.  The k-th products of
    all the chains are one `products` call."""
    chains = [c for _, cs in laws for c in cs]
    ends = [c[0] for c in chains]
    for k in range(1, max(map(len, chains), default=1)):
        live = [i for i, c in enumerate(chains) if len(c) > k]
        for i, uv in zip(live, products((ends[i], chains[i][k]) for i in live)):
            ends[i] = uv
    it = iter(ends)
    bad = []
    for msg, cs in laws:
        first, *rest = [next(it) for _ in cs]
        if any(v != first for v in rest):
            bad.append(msg)
    return bad


def _check_window_identities(ctx: AlgebraCtx, rng: random.Random) -> tuple[list[str], str]:
    # the draws keep their order, and each law is a list of chains
    p = ctx.p
    src = AlgebraCtx(p, ctx.r - 1, ctx.rprime - 1)
    mus = [weight_projector(a, 1, ctx) for a in range(p)]
    draws = [
        (a, b, _rand_elem(rng, src, 2), _rand_elem(rng, src, 2))
        for a in range(p)
        for b in range(a, p)
        for _ in range(3)
    ]
    laws = [
        (
            f"product collapse fails at a={a}, b={b}",
            [(mus[a], fr_prime(z1), fr_prime(z2), x_power(b, ctx)), (mus[a], fr_prime(z), x_power(b, ctx))],
        )
        for (a, b, z1, z2), z in zip(draws, products((z1, z2) for _, _, z1, z2 in draws))
    ]
    # the windows mu_a Y^(m) X^(m-s) of cases A/C
    cases = [(pr, m) for pr in all_pairs(p) if pr.case in ("A", "C") for m in range(min_yx_power(pr, p), p)]
    windows = products(
        (my, x_power(m - recursion_shift(pr, p), ctx))
        for (pr, m), my in zip(cases, products((mus[pr.a], y_power(m, ctx)) for pr, m in cases))
    )
    for (pr, m), w in zip(cases, windows):
        name = f"({pr.a},{pr.two_j}) m={m}"
        for n in range(1, min(p ** (ctx.r - 1), 4)):
            laws += [(f"{name}: X/Y^(np) fails", [(u, w), (w, u)]) for u in (gen_x(n * p, ctx), gen_y(n * p, ctx))]
            h = gen_h_binom(n * p, ctx)
            hprev = gen_h_binom((n - 1) * p, ctx) if n > 1 else one(ctx)
            laws.append((f"{name}: torus intertwining fails", [(w, h), (h + hprev, w)]))
    return _failed_laws(laws), ""


def _check_z_operator_laws(ctx: AlgebraCtx, rng: random.Random) -> tuple[list[str], str]:
    # The draws keep their order: four trials per pair, then one cross pair
    # per ordered pair of different pairs.  Each pair's lifts are one
    # `z_operators` call, and each law is a list of chains.
    p = ctx.p
    base = AlgebraCtx(p, 1, 1)
    tgt = AlgebraCtx(p, 2, 2)
    pairs = all_pairs(p)
    draws = [(pr, pr) for pr in pairs for _ in range(4)] + [(a, b) for a in pairs for b in pairs if a != b]
    draws = [(a, b, _rand_elem(rng, base, 2), _rand_elem(rng, base, 2)) for a, b in draws]
    trials, cross = draws[: 4 * len(pairs)], draws[4 * len(pairs) :]
    below = products(c for _, _, z1, z2 in trials for c in ((z1, z2), (gen_x(1, base), z1), (gen_y(1, base), z1)))
    # each pair lifts the unit, then z1, z2, z1 z2, X z1 and Y z1 of each of
    # its trials, then its side of each cross pair
    todo = {pr: [one(base)] for pr in pairs}
    for k, (pr, _, z1, z2) in enumerate(trials):
        todo[pr] += [z1, z2, *below[3 * k : 3 * k + 3]]
    for pr1, pr2, z1, z2 in cross:
        todo[pr1].append(z1)
        todo[pr2].append(z2)
    lifted = {pr: iter(z_operators(zs, pr)) for pr, zs in todo.items()}
    xp, yp = gen_x(p, tgt), gen_y(p, tgt)
    laws = []
    for pr in pairs:
        e, name = embed(level1_idempotent(pr, base), tgt), f"({pr.a},{pr.two_j})"
        laws.append((f"unit image off for {name}", [(next(lifted[pr]),), (e,)]))
        for _ in range(4):
            zz, w2, w12, wx, wy = [next(lifted[pr]) for _ in range(5)]
            laws += [
                (f"multiplicativity fails for {name}", [(zz, w2), (w12,)]),
                (f"corner containment fails for {name}", [(e, zz), (zz, e), (zz,)]),
                (f"X descent fails for {name}", [(xp, zz), (wx,)]),
                (f"Y descent fails for {name}", [(yp, zz), (wy,)]),
            ]
    laws += [
        (
            f"cross product not zero: ({pr1.a},{pr1.two_j}) vs ({pr2.a},{pr2.two_j})",
            [(next(lifted[pr1]), next(lifted[pr2])), (zero(tgt),)],
        )
        for pr1, pr2, _, _ in cross
    ]
    return _failed_laws(laws), ""


def _check_telescoping(ctx: AlgebraCtx) -> tuple[list[str], str]:
    p = ctx.p
    inner_ctx = AlgebraCtx(p, ctx.r, ctx.r)
    pairs = all_pairs(p)
    # the labels of inner_ctx come in runs that share their first pair pr0
    rows = zip(*tuple_coords(enumerate_labels(inner_ctx), inner_ctx))
    bad = []
    for pr0 in pairs:
        total = zero(inner_ctx)
        for nu, x in itertools.islice(rows, len(pairs) ** (ctx.r - 1)):
            total = total + from_weight_coords(inner_ctx, nu, x)
        if total != embed(level1_idempotent(pr0, AlgebraCtx(p, 1, 1)), inner_ctx):
            bad.append(f"inner sum misses the level-1 idempotent of ({pr0.a},{pr0.two_j})")
    return bad, ""


def _check_frobenius_roundtrip(ctx: AlgebraCtx) -> tuple[list[str], str]:
    # digit-probe lemma (module docstring): fixing the 2r + rprime probes
    # fixes every one of the p**(2r+rprime) basis elements
    p, n, q = ctx.p, ctx.xy_range, ctx.q
    keys = list(itertools.product(range(n), repeat=2))
    position = np.arange(n * n * q).reshape(n * n, q)  # P = (m p**r + m') q + w
    digits = [("weight", j) for j in range(ctx.rprime)]
    digits += [(side, j) for side in ("X-exponent", "Y-exponent") for j in range(ctx.r)]
    bad = []
    for k, (what, j) in enumerate(digits):
        u = HyperElem(ctx, dict(zip(keys, position // p**k % p)))
        if fr(fr_prime(u)) != u:
            bad.append(f"probe {k} ({what} digit {j})")
    return bad, f"{n * n * q} basis elements"


def _check_associativity(ctx: AlgebraCtx, rng: random.Random) -> tuple[list[str], str]:
    # (u v) w against u (v w), with the draws in order: u, v, w, trial by trial
    uvw = [tuple(_rand_elem(rng, ctx, 2) for _ in range(3)) for _ in range(_TRIALS)]
    firsts = products(pair for u, v, w in uvw for pair in ((u, v), (v, w)))
    seconds = products(
        pair for (u, _, w), uv, vw in zip(uvw, firsts[::2], firsts[1::2]) for pair in ((uv, w), (u, vw))
    )
    bad = [f"trial {k}" for k, (left, right) in enumerate(zip(seconds[::2], seconds[1::2])) if left != right]
    return bad, f"{_TRIALS} random triples"


def _check_oracle(ctx: AlgebraCtx, rng: random.Random) -> tuple[list[str], str]:
    # the draws keep their order, and every u v is one `products` call
    p, n = ctx.p, 2 * ctx.xy_range - 1
    draws = [(lam, _rand_elem(rng, ctx, 2), _rand_elem(rng, ctx, 2)) for lam in range(n) for _ in range(_PAIRS_PER_WEIGHT)]
    bad = []
    for (lam, u, v), uv in zip(draws, products((u, v) for _, u, v in draws)):
        a = weyl_action(u, lam)
        k = np.flatnonzero(a.any(axis=0))  # exact: b's other rows meet zero columns of a
        if not np.array_equal(weyl_action(uv, lam), a[:, k] @ weyl_action(v, lam)[k] % p):
            bad.append(f"highest weight {lam}")
    return bad, f"weights 0..{n - 1}"


def _check_product_independence(p: int) -> tuple[list[str], str]:
    # products of the depth-1 basis with the exponent-raised depth-1 basis
    # span the depth-2 algebra
    big = AlgebraCtx(p, 2, 2)
    small = AlgebraCtx(p, 1, 1)
    exps = list(itertools.product(range(p), repeat=3))
    us = [pbw_elem(m, n, mp_, big) for m, n, mp_ in exps]
    vs = [fr_prime(pbw_elem(m, n, mp_, small)) for m, n, mp_ in exps]
    basis = IdealBasis()
    basis.add_all(products((u, v) for u in us for v in vs))
    rank = basis.dim
    return [] if rank == p**6 else [f"rank {rank} != {p**6}"], f"{p**6} products"


def _check_top_x(ctx: AlgebraCtx) -> tuple[list[str], str]:
    bad = []
    labels = enumerate_labels(ctx)
    for lb, nu, x in zip(labels, *tuple_coords(labels, ctx)):
        t = top_x_exponent(from_weight_coords(ctx, nu, x))
        if t != predicted_top_x(lb, ctx.p):
            bad.append(f"{format_label(lb)}: {t} != {predicted_top_x(lb, ctx.p)}")
    return bad, ""


def _check_pim_census(ctx: AlgebraCtx) -> tuple[list[str], str]:
    """Left-ideal dimensions of every idempotent, which must sum to dim A.

    Census lemma: this certifies idempotency and orthogonality by a second
    route, independent of the weight-space lemma.  Sum-to-one gives
    sum_i e_i = 1, so A = sum_i A e_i.  The dimensions add up to dim A, so
    that sum is direct.  Writing e_j = sum_i e_j e_i, with e_j e_i in A e_i,
    then forces e_j e_i = delta_ij e_j.
    """
    ambient = ctx.xy_range**2 * ctx.q
    rows = pim_rows(ctx)
    bad = [f"{row['label']}: {row['status']}" for row in rows if row["status"] != "PASS"]
    census = sum(row["computed_dim"] for row in rows)
    if census != ambient:
        bad.append(f"census {census} != {ambient}")
    return bad, f"census {census} = ambient dim"


def _check_roundtrips(ctx: AlgebraCtx, rng: random.Random) -> tuple[list[str], str]:
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
    return bad, ""


def run_suite(ctx: AlgebraCtx, suite: str = "basic", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the named suite on a context and collect per-check results.

    Each table row is (name, skip reason or None, check, args).  A row with
    a reason passes with that reason as its detail, and its check is not
    called; the others run in table order, so the checks that take the one
    seeded rng draw from it in that order.
    """
    if suite not in ("basic", "full"):
        raise ValueError(f"unknown suite {suite!r}")

    def run(table: list[tuple]) -> list[CheckResult]:
        return [
            CheckResult(name, True, skip) if skip else _result(name, *check(*args))
            for name, skip, check, args in table
        ]

    rng = random.Random(seed)
    results = run([
        ("weight-projectors", None, _check_mu_projectors, (ctx,)),
        ("weight-projector-binomial-form", None, _check_mu_binomial_form, (ctx,)),
    ])
    labels = enumerate_labels(ctx)
    nus, xs = tuple_coords(labels, ctx)
    # the rows of the tensor lemma have degree 0 by construction
    results += _certificate(ctx, labels, list(zip(nus.tolist(), xs)), [[0]] * len(labels))
    if suite == "full":
        p, ambient = ctx.p, ctx.xy_range**2 * ctx.q
        table_case = "table case, skipped" if p == 2 else None
        needs_r2 = "needs r >= 2, skipped" if ctx.r < 2 else None
        p_large = "skipped for p > 3 (size)" if p > 3 else None
        pr_large = "skipped for p^r > 32 (size)" if ctx.xy_range > 32 else None
        ambient_large = f"skipped for ambient dim {ambient} (size)" if ambient > 20000 else None
        results += run([
            ("selector-partition-of-unity", table_case, _check_selector_partition, (p,)),
            ("squares-shift-identity", table_case, _check_squares_shift, (p,)),
            ("min-power-closed-forms", table_case, _check_min_power_forms, (p,)),
            ("yx-expansion-double-path", None, _check_expansion_double_path, (p,)),
            ("yx-product-identity", None, _check_yx_product_identity, (p,)),
            ("commuting-yx-family", None, _check_commuting_family, (ctx,)),
            ("p-divided-powers-centralize", needs_r2, _check_p_divided_center, (ctx,)),
            ("frobenius-window-identities", needs_r2, _check_window_identities, (ctx, rng)),
            ("lifting-operator-laws", needs_r2, _check_z_operator_laws, (ctx, rng)),
            ("partial-sum-telescoping", needs_r2, _check_telescoping, (ctx,)),
            ("frobenius-splitting-roundtrip", None, _check_frobenius_roundtrip, (ctx,)),
            ("associativity", None, _check_associativity, (ctx, rng)),
            ("multiplication-oracle", None, _check_oracle, (ctx, rng)),
            ("split-product-independence", p_large, _check_product_independence, (p,)),
            ("top-x-exponent", pr_large, _check_top_x, (ctx,)),
            ("pim-census", ambient_large, _check_pim_census, (ctx,)),
            ("round-trips", None, _check_roundtrips, (ctx, rng)),
        ])
    return results
