"""Primitive idempotents of the finite divided-power algebras.

Index pairs (a, j) run over the weight class a in F_p and a square-class
index j; j is stored doubled (two_j = 2j) so the p = 2 half-integer index
needs no rational arithmetic.  Each pair falls into one of four cases
A/B/C/D according to the parity of a and the size of j, which steers the
closed forms below and the recursion one level up.

Depth-1 idempotents come from evaluating a selector polynomial at the
weight-projected lowering-raising element.  Deeper ones are produced by a
case-dependent operator that sandwiches the exponent-multiplying splitting
of the Frobenius map between window elements; iterating it over a tuple of
pairs, and cutting by a torus block projector when the torus range exceeds
the divided-power range, yields the complete family of pairwise orthogonal
primitive idempotents summing to 1.  The *tensor lemma* (`tuple_coords`)
gives that iteration's result in closed form: in the weight-space algebra
B_nu its coordinates are the Kronecker product of the pairs' level-1
coordinates, and nu follows from the pairs' digits.  Coordinates first:
`tuple_coords` computes (nu, x) for a whole list of labels as one int64
weight array and one int16 (N, p**r) table, with no element and no product
of the algebra, and `tuple_idempotent` is its one-item case, built as one
block by `algebra.from_weight_coords` (and cached).  `z_operator`, `embed`
and the block projector stay public, and the tests keep their chain as the
oracle of the construction.  `z_operators` lifts a list of elements by one
pair with one `algebra.products` call per factor, and `z_operator` is its
one-item case, as `*` is the one-pair case of `products`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraCtx,
    HyperElem,
    fr_prime,
    from_weight_coords,
    gen_x,
    gen_y,
    one,
    products,
    weight_coords,
    x_power,
    y_power,
    zero,
)
from .fpoly import selector_poly, selector_poly_shifted, to_yx_power_basis
from .modp import factorial_mod_p, inv_mod_p

__all__ = [
    "PairAJ",
    "TupleLabel",
    "ProductExpansion",
    "LabelError",
    "classify_case",
    "make_pair",
    "all_pairs",
    "min_yx_power",
    "min_xy_power",
    "recursion_shift",
    "yx_coeff_table",
    "xy_coeff_table",
    "weight_projector",
    "upper_block_projector",
    "level1_idempotent",
    "yx_expansion",
    "xy_expansion",
    "z_operator",
    "z_operators",
    "tuple_coords",
    "tuple_idempotent",
    "enumerate_labels",
    "parse_label",
    "format_label",
]

_P2_PAIRS = ((0, 1), (1, 0), (1, 2))
_P2_YX = {(0, 1): (1, 0), (1, 0): (0, 1), (1, 2): (1, 1)}
_P2_XY = {(0, 1): (1, 0), (1, 0): (1, 1), (1, 2): (0, 1)}


class LabelError(ValueError):
    """Raised for labels that do not parse or do not fit the context."""


@dataclass(frozen=True)
class PairAJ:
    """An index pair; two_j is twice the square-class index."""

    a: int
    two_j: int
    case: str


@dataclass(frozen=True)
class TupleLabel:
    """r index pairs plus, when the torus range is strictly larger, the block index."""

    pairs: tuple[PairAJ, ...]
    aprime: int | None = None


def _validate_pair(a: int, two_j: int, p: int) -> None:
    if p == 2:
        if (a, two_j) not in _P2_PAIRS:
            raise ValueError(f"(a, 2j) = ({a}, {two_j}) is not one of {_P2_PAIRS} for p=2")
        return
    if not 0 <= a < p:
        raise ValueError(f"a = {a} out of range 0..{p - 1}")
    if two_j % 2 or not 0 <= two_j <= p - 1:
        raise ValueError(f"2j = {two_j} must be even in 0..{p - 1} for odd p")


def classify_case(a: int, two_j: int, p: int) -> str:
    """The unique tag among A/B/C/D for a valid pair."""
    _validate_pair(a, two_j, p)
    if a % 2 == 0:
        return "B" if two_j < p - a else "A"
    return "C" if two_j < a else "D"


def make_pair(a: int, two_j: int, p: int) -> PairAJ:
    return PairAJ(a, two_j, classify_case(a, two_j, p))


@functools.lru_cache(maxsize=None)
def all_pairs(p: int) -> tuple[PairAJ, ...]:
    """All p(p+1)/2 index pairs (three for p = 2), lexicographic in (a, 2j)."""
    if p == 2:
        return tuple(make_pair(a, t, p) for a, t in _P2_PAIRS)
    return tuple(
        make_pair(a, 2 * j, p) for a in range(p) for j in range((p + 1) // 2)
    )


def min_yx_power(pair: PairAJ, p: int) -> int:
    """Lowest m with a nonzero Y^m X^m coefficient; closed form by case."""
    a, t = pair.a, pair.two_j
    n2 = {
        "A": p - a - 1 + t,
        "B": p - a - 1 - t,
        "C": 2 * p - a - 1 - t,
        "D": t - a - 1,
    }[pair.case]
    assert n2 >= 0 and n2 % 2 == 0
    return n2 // 2


def min_xy_power(pair: PairAJ, p: int) -> int:
    """Lowest m with a nonzero X^m Y^m coefficient; closed form by case."""
    a, t = pair.a, pair.two_j
    n2 = {
        "A": a - 1 - p + t,
        "B": p + a - 1 - t,
        "C": a - 1 - t,
        "D": t + a - 1,
    }[pair.case]
    assert n2 >= 0 and n2 % 2 == 0
    return n2 // 2


def recursion_shift(pair: PairAJ, p: int) -> int:
    """The X-shift s used by the A/C branch of the recursion; a + 2s is 0 or 1 mod p."""
    if pair.case not in ("A", "C"):
        raise ValueError(f"shift is only defined for cases A/C, not {pair.case}")
    if p == 2:
        return 1
    return (p - pair.a + 1) // 2 if pair.a % 2 == 0 else (p - pair.a) // 2


@functools.lru_cache(maxsize=None)
def yx_coeff_table(pair: PairAJ, p: int) -> tuple[int, ...]:
    """Coefficients c_m with E = mu_a sum_m c_m Y^m X^m, from the polynomial side."""
    if p == 2:
        return _P2_YX[(pair.a, pair.two_j)]
    f = selector_poly_shifted(pair.a, pair.two_j // 2, p)
    return to_yx_power_basis(f, pair.a)


@functools.lru_cache(maxsize=None)
def xy_coeff_table(pair: PairAJ, p: int) -> tuple[int, ...]:
    """Coefficients of the X^m Y^m form; the mirror a -> -a of the YX table."""
    if p == 2:
        return _P2_XY[(pair.a, pair.two_j)]
    a_mirror = (p - pair.a) % p
    f = selector_poly_shifted(a_mirror, pair.two_j // 2, p)
    return to_yx_power_basis(f, a_mirror)


def weight_projector(a: int, s: int, ctx: AlgebraCtx) -> HyperElem:
    """The torus idempotent projecting onto the weight class a mod p**s.

    In the binomial basis this is C(H - a - 1, p**s - 1); in evaluation form
    it is simply the indicator vector of the class.
    """
    if not 1 <= s <= ctx.rprime:
        raise ValueError(f"projector depth {s} out of range 1..{ctx.rprime}")
    ps = ctx.p**s
    vec = (np.arange(ctx.q) % ps == a % ps).astype(np.int64)
    return HyperElem(ctx, {(0, 0): vec})


def upper_block_projector(aprime: int, ctx: AlgebraCtx) -> HyperElem:
    """Projector onto the weights w with w // p**r == aprime.

    Equals the r-fold exponent-multiplied image of the depth-(rprime - r)
    weight projector, by the digit-splitting identity for the projectors.
    """
    blocks = ctx.p ** (ctx.rprime - ctx.r)
    if not 0 <= aprime < blocks:
        raise ValueError(f"block index {aprime} out of range 0..{blocks - 1}")
    vec = (np.arange(ctx.q) // ctx.p**ctx.r == aprime).astype(np.int64)
    return HyperElem(ctx, {(0, 0): vec})


def _poly_at_elem(coeffs, t: HyperElem) -> HyperElem:
    # Horner evaluation of a polynomial at an algebra element.
    ctx = t.ctx
    acc = zero(ctx)
    for c in reversed(coeffs):
        acc = acc * t + int(c) * one(ctx)
    return acc


@functools.lru_cache(maxsize=None)
def level1_idempotent(pair: PairAJ, ctx: AlgebraCtx) -> HyperElem:
    """The primitive idempotent attached to one index pair.

    For odd p this evaluates the selector polynomial at
    mu_a Y X + ((a+1)/2)^2 and multiplies by mu_a; for p = 2 the three
    idempotents are mu_0, mu_1 Y X and mu_1 X Y.
    """
    p = ctx.p
    mu_a = weight_projector(pair.a, 1, ctx)
    yx = gen_y(1, ctx) * gen_x(1, ctx)
    if p == 2:
        if pair.a == 0:
            return mu_a
        if pair.two_j == 0:
            return mu_a * yx
        return mu_a * gen_x(1, ctx) * gen_y(1, ctx)
    half = inv_mod_p(2, p)
    c0 = ((pair.a + 1) * half) ** 2 % p
    t = mu_a * yx + c0 * one(ctx)
    sel = selector_poly(pair.two_j // 2, p)
    return _poly_at_elem(sel.coeffs, t) * mu_a


@dataclass(frozen=True)
class ProductExpansion:
    """Coefficients of a degree-0 element over ordinary Y^m X^m products
    (order 'yx') or X^m Y^m products (order 'xy') against the weight
    projector of class a; min_power is the lowest nonzero index."""

    a: int
    order: str
    coeffs: tuple[int, ...]
    min_power: int


def _expansion(a: int, order: str, coeffs) -> ProductExpansion:
    nz = [m for m, c in enumerate(coeffs) if c]
    if not nz:
        raise ValueError("the zero element has no expansion")
    return ProductExpansion(a, order, tuple(coeffs), nz[0])


def yx_expansion(e: HyperElem, a: int) -> ProductExpansion:
    """Read the Y^m X^m coefficients off the B_a coordinates of e.

    The (m, m) term of mu_a Y^m X^m is (m!)^2 Y^(m) mu_{a+2m} X^(m), so its
    coefficient is (m!)^-2 times the coordinate of e at m in B_a.
    """
    ctx = e.ctx
    if ctx.r != 1 or ctx.rprime != 1:
        raise ValueError("expansion extraction expects the depth-1 context")
    p = ctx.p
    try:
        nu, x = weight_coords(e)
    except ValueError as exc:
        raise ValueError(f"element {exc}") from None
    if nu != a % p:
        raise ValueError(f"element has weight {nu}, not {a % p}")
    coeffs = [int(c) * inv_mod_p(factorial_mod_p(m, p) ** 2, p) % p for m, c in enumerate(x)]
    return _expansion(a % p, "yx", coeffs)


def xy_expansion(e: HyperElem, a: int) -> ProductExpansion:
    """Express e over the products mu_a X^m Y^m by downward elimination."""
    ctx = e.ctx
    if ctx.r != 1 or ctx.rprime != 1:
        raise ValueError("expansion extraction expects the depth-1 context")
    p = ctx.p
    mu_a = weight_projector(a, 1, ctx)
    coeffs = [0] * p
    rem, terms = e, e.terms
    for m in range(p - 1, -1, -1):
        f = terms.get((m, m))
        if f is None:
            continue
        lam = (a + 2 * m) % p
        fact = factorial_mod_p(m, p)
        cm = int(f[lam]) * inv_mod_p(fact * fact, p) % p
        coeffs[m] = cm
        if cm:
            rem = rem - cm * (mu_a * x_power(m, ctx) * y_power(m, ctx))
            terms = rem.terms
    if not rem.is_zero():
        raise ValueError("element is not a combination of the X^m Y^m products")
    return _expansion(a % p, "xy", coeffs)


@functools.lru_cache(maxsize=None)
def _ac_window(pair: PairAJ, ctx: AlgebraCtx) -> HyperElem:
    # mu_a sum_{m >= n} c_m Y^m X^(m - s), the left window of the A/C branch.
    p = ctx.p
    s = recursion_shift(pair, p)
    mu_a = weight_projector(pair.a, 1, ctx)
    acc = zero(ctx)
    for m, cm in enumerate(yx_coeff_table(pair, p)):
        if cm:
            acc = acc + cm * (mu_a * y_power(m, ctx) * x_power(m - s, ctx))
    return acc


def z_operator(z: HyperElem, pair: PairAJ) -> HyperElem:
    """Lift z one level: the case-dependent map into the corner algebra of the pair.

    Cases B/D multiply the exponent-raised z by the level-1 idempotent;
    cases A/C sandwich it between the window element and X^s.  The
    one-item case of `z_operators`.
    """
    return z_operators([z], pair)[0]


def z_operators(zs, pair: PairAJ) -> list[HyperElem]:
    """[z_operator(z, pair) for z in zs], in one `products` call per factor:
    lifted * e for cases B/D, (window * lifted) * X^s for cases A/C.
    Raises ValueError unless every z lies in one context."""
    lifted = [fr_prime(z) for z in zs]
    if not lifted:
        return []
    tgt = lifted[0].ctx
    if pair.case in ("B", "D"):
        e = level1_idempotent(pair, tgt)
        return products((u, e) for u in lifted)
    window = _ac_window(pair, tgt)
    xs = x_power(recursion_shift(pair, tgt.p), tgt)
    return products((wu, xs) for wu in products((window, u) for u in lifted))


@functools.lru_cache(maxsize=None)
def _level1_coords(pair: PairAJ, p: int) -> np.ndarray:
    # w[m] = c_m (m!)**2 mod p: the B_a coordinates of the level-1 idempotent
    # (see `yx_expansion`); int32, the dtype `tuple_coords` multiplies in;
    # shared by every label, so read-only
    w = np.zeros(p, dtype=np.int32)
    for m, cm in enumerate(yx_coeff_table(pair, p)):
        w[m] = cm * factorial_mod_p(m, p) ** 2 % p
    w.setflags(write=False)
    return w


def tuple_coords(labels, ctx: AlgebraCtx) -> tuple[np.ndarray, np.ndarray]:
    """(nus, xs): the B_nu coordinates of the idempotents of `labels`, by the
    tensor lemma, with no element built.

    nus is an int64 array of the N weights and xs an (N, p**r) int16 table
    whose row i is the coordinate vector x of labels[i], so that
    from_weight_coords(ctx, nus[i], xs[i]) is its idempotent.  int16, not
    int8, holds x exactly by the storage lemma (`algebra`): every entry lies
    below p, and p <= 4093 < 2**15.  The Kronecker products are formed for
    all labels at once, one factor per step, multiplied in int32 and reduced
    mod p after each step (p**2 < 2**31).  Raises ValueError for a label
    with the wrong number of pairs, with aprime present or absent against
    the context, or with a weight outside 0..q-1 (aprime out of range).

    Tensor lemma.  For a pair pi let w_pi[j] = c_j (j!)**2 mod p, j < p,
    with c = yx_coeff_table(pi, p): the B_a coordinates of
    level1_idempotent(pi) (`yx_expansion`).  The label
    (pi_0, ..., pi_(r-1); a') gives sum_m x_m beta_m in B_nu
    (`algebra.weight_coords`), where

        x_m = prod_k w_(pi_k)[m_k]   over the base-p digits m_k of m,
        nu = (sum_k b_k p**k mod p**r) + p**r a',

    with b_k = a_k - p in cases A/C and b_k = a_k in cases B/D.  So x is
    the Kronecker product w_(pi_(r-1)) (x) ... (x) w_(pi_0).

    Proof, by induction on the chain.  The level-1 idempotent of pi is
    sum_j w_pi[j] beta_j in B_a, and a = a - p mod p.  Let
    z = sum_n x_n beta_n lie in B_nu of AlgebraCtx(p, k, k), and lift it by
    pi = (a, 2j):

    * fr_prime(z) = sum_(t<p) sum_n x_n beta_(pn) in B_(p nu + t), since
      fr_prime reads each torus factor at w // p.
    * Cases B/D multiply by the level-1 idempotent, which is
      sum_j w_pi[j] beta_j in every B_nu' with nu' = a mod p.  Different
      weights multiply to 0, so mu_a keeps t = a.  For j < p the product
      lemma (`verify`) gives beta_(pn) beta_j = beta_(pn+j): by Lucas,
      C(c, pn) C(c, j) != 0 with pn <= c <= pn + j forces c = pn + j.
      So x becomes x (x) w_pi, and b = a.
    * Cases A/C form window * beta_(pn) * X^s, with the window
      mu_a sum_m c_m Y^m X^(m-s).  In X^(m-s) Y^(pn), only the i = 0 term
      of sum_i Y^(pn-i) C(H-m+s-pn+2i, i) X^(m-s-i) survives: for
      1 <= i <= m - s, Y^(m) Y^(pn-i) carries in the lowest base-p digit
      (m + p - i >= p), so Kummer makes its coefficient C(m+pn-i, m) zero.
      At i = 0, Lucas gives C(m+pn, m) = 1 and
      C(m-s+pn, m-s) C(pn+m, s) = C(m, s), so with the ordinary powers the
      coefficient of beta_(pn+m) in B_(p nu + t - 2s) is
      c_m m! (m-s)! s! C(m, s) = c_m (m!)**2.  mu_a keeps the one t with
      t - 2s = a mod p; as a + 2s is p or p + 1 (`recursion_shift`),
      t - 2s = a - p.  So x becomes x (x) w_pi, and b = a - p.
    * `embed` repeats each torus factor over the weights w = nu + 2m mod
      p**r, and the block projector keeps those with (w - 2m) // p**r = a'.
      Both keep x and move nu to (nu mod p**r) + p**r a'.

    The tests keep that chain as the oracle of this construction.
    """
    p, r, ps, q = ctx.p, ctx.r, ctx.xy_range, ctx.q
    rows, nus = [], []
    for label in labels:
        pairs = label.pairs
        if len(pairs) != r:
            raise ValueError(f"label has {len(pairs)} pairs, context needs {r}")
        if (label.aprime is None) != (ctx.rprime == r):
            raise ValueError("aprime must be present exactly when rprime > r")
        b = 0  # sum_k b_k p**k, by Horner from the top digit
        for pr in reversed(pairs):
            b = b * p + (pr.a - p if pr.case in ("A", "C") else pr.a)
            rows.append(_level1_coords(pr, p))
        nu = b % ps + ps * (label.aprime or 0)
        if not 0 <= nu < q:
            raise ValueError(f"weight {nu} out of range 0..{q - 1}")
        nus.append(nu)
    # w[i, j] = w_(pi_(r-1-j)) of labels[i], top digit first, so that
    # x = w[i, 0] (x) ... (x) w[i, r-1]: one Kronecker factor per step, all
    # labels at once
    n = len(nus)
    w = np.array(rows, dtype=np.int32).reshape(n, r, p)
    x = w[:, 0]
    for j in range(1, r):
        x = (x[:, :, None] * w[:, j, None, :]).reshape(n, p ** (j + 1)) % p
    return np.array(nus, dtype=np.int64), x.astype(np.int16)


@functools.lru_cache(maxsize=None)
def tuple_idempotent(label: TupleLabel, ctx: AlgebraCtx) -> HyperElem:
    """The primitive idempotent of a full label in the given context.

    The construction starts from the level-1 idempotent of pairs[-1],
    applies `z_operator` for pairs[-2], ..., pairs[0] in the minimal
    contexts AlgebraCtx(p, k, k) (so pairs[0] is the least-significant
    digit), embeds the result in ctx, and cuts it by
    `upper_block_projector(aprime)` when the label carries one.  Here it
    is the one-item case of the tensor lemma (`tuple_coords`).  Its cache
    serves single labels and perfbench's tracer; bulk readers take
    `tuple_coords` rows.
    """
    nus, xs = tuple_coords((label,), ctx)
    return from_weight_coords(ctx, int(nus[0]), xs[0])


def enumerate_labels(ctx: AlgebraCtx) -> list[TupleLabel]:
    """All labels of the context in lexicographic (a_0, 2j_0, ..., a') order."""
    blocks = ctx.p ** (ctx.rprime - ctx.r)
    out = []
    for combo in itertools.product(all_pairs(ctx.p), repeat=ctx.r):
        if ctx.rprime == ctx.r:
            out.append(TupleLabel(combo, None))
        else:
            out.extend(TupleLabel(combo, ap) for ap in range(blocks))
    return out


def format_label(label: TupleLabel) -> str:
    text = ",".join(f"{pr.a}:{pr.two_j}" for pr in label.pairs)
    if label.aprime is not None:
        text += f";{label.aprime}"
    return text


def _numeral(field: str) -> int | None:
    # An ASCII decimal numeral: no sign, space, underscore, other digit
    # script or leading zero, so an accepted label prints back as written.
    # (int() alone accepts all of those; isdigit() alone, any script.)
    if not (field.isascii() and field.isdigit()) or (field[0] == "0" and field != "0"):
        return None
    try:
        return int(field)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def parse_label(text: str, ctx: AlgebraCtx) -> TupleLabel:
    """Parse `a:t[,a:t]*[;aprime]` with t = 2j, validating against the context.

    Each of a, t and aprime is an ASCII decimal numeral without leading
    zeros, so `format_label(parse_label(text, ctx)) == text`.
    """
    p = ctx.p
    main, sep, ap_part = text.partition(";")
    pieces = main.split(",") if main else []
    if len(pieces) != ctx.r:
        raise LabelError(f"label '{text}' has {len(pieces)} pairs, context needs {ctx.r}")
    pairs = []
    for piece in pieces:
        a_s, colon, t_s = piece.partition(":")
        a, t = _numeral(a_s), _numeral(t_s)
        if not colon or a is None or t is None:
            raise LabelError(f"malformed pair '{piece}' (expected 'a:t')")
        try:
            pairs.append(make_pair(a, t, p))
        except ValueError as exc:
            raise LabelError(f"invalid pair '{piece}' for p={p}: {exc}") from None
    blocks = p ** (ctx.rprime - ctx.r)
    if ctx.rprime == ctx.r:
        if sep:
            raise LabelError("context has rprime = r; the ';aprime' part is not allowed")
        aprime = None
    else:
        aprime = _numeral(ap_part)
        if aprime is None:
            raise LabelError(f"label '{text}' needs ';aprime' in 0..{blocks - 1}")
        if not 0 <= aprime < blocks:
            raise LabelError(f"aprime = {aprime} out of range 0..{blocks - 1}")
    return TupleLabel(tuple(pairs), aprime)
