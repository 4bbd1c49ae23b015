"""Module-theoretic verification: the Weyl-action oracle and projective covers.

weyl_action gives a second, independent route to products (matrices acting
on a highest-weight module), left_ideal_dim measures the module each
idempotent generates, and the label bookkeeping predicts which projective
indecomposable that module is from the case data alone: its dimension, the
generator's torus weight, and the largest surviving X exponent.

left_ideal_dim rests on the *weight-block lemma*.  A has the PBW basis
Y^(a) C(H,n) X^(b).  Let e be a left weight vector of weight nu, so that
mu_nu e = e for the depth-rprime weight projector mu_nu.  Then
C(H,n) X^(b) e = C(nu + 2b, n) X^(b) e, hence A e = span{Y^(a) X^(b) e}.
Products keep the degree m' - m, so for homogeneous e

    A e = (+)_d span{Y^(a) X^(a+d) e},   dim A e = sum_d rank_p(block d),

which needs only the p**r elements X^(b) e; Y^(a) acts on their
coordinates.  The same elements give the top X exponent, the largest b
with X^(b) e nonzero, so pim_rows reads weight, dimension and top X in one
pass, from each label's `tuple_coords` row.  left_ideal_span (the closure
under the algebra generators) and top_x_exponent stay public as its
oracles; the weight is read from supports.

All p**r elements come from one product, by the *grading lemma*.  Let
S = sum_{b < p**r} X^(b).  X^(b) has degree b and a product adds degrees
m' - m, so for homogeneous e of degree d0 the degree-(d0 + b) terms of S e
are exactly X^(b) e.  Different b give disjoint keys, so nothing cancels,
and the top X exponent is the largest b present.

IdealBasis.add_coords is the package's one row reduction over F_p: the
degree blocks above, left-ideal spans and the split-product rank in verify
are all built through it.  It keeps a row-echelon basis, not a reduced
one: a new row is cleared at its lowest index by that pivot's row until
its lowest index is no pivot, and the basis rows are never touched again.
Only ranks are read from it, and they do not depend on the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraCtx,
    HyperElem,
    from_weight_coords,
    gen_h_binom,
    gen_x,
    gen_y,
    left_weight,
    weightfn_to_coeffs,
)
from .idempotents import (
    TupleLabel,
    enumerate_labels,
    format_label,
    min_xy_power,
    tuple_coords,
)
from .modp import binom_mod_p, inv_mod_p

__all__ = [
    "weyl_action",
    "IdealBasis",
    "left_ideal_span",
    "left_ideal_dim",
    "PimLabel",
    "pim_label_closed_form",
    "predicted_weight",
    "predicted_top_x",
    "top_x_exponent",
    "weight_of_idempotent",
    "pim_rows",
]


def weyl_action(u: HyperElem, lam: int) -> np.ndarray:
    """Matrix of u on the highest-weight-lam Weyl module, basis v_i = Y^(i) v.

    Action rules: Y^(m) v_i = C(i+m, m) v_{i+m},
    X^(m) v_i = C(lam-i+m, m) v_{i-m}, and a torus factor scales v_i by its
    value on the class of lam - 2i.
    """
    ctx = u.ctx
    p, q = ctx.p, ctx.q
    dim = lam + 1
    out = np.zeros((dim, dim), dtype=np.int64)
    for (m, mp_), f in u.terms.items():
        for i in range(mp_, dim):
            i2 = i - mp_ + m
            if i2 > lam:
                continue
            c = binom_mod_p(lam - i + mp_, mp_, p) * int(f[(lam - 2 * (i - mp_)) % q]) % p
            c = c * binom_mod_p(i2, m, p) % p
            if c:
                out[i2, i] = (out[i2, i] + c) % p
    return out


@dataclass
class IdealBasis:
    """Row-echelon basis in the normal-form coordinate space: rows maps each
    pivot coordinate to its normalized sparse row, whose lowest index is
    that pivot.  The rows are not reduced against later pivots."""

    rows: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v: HyperElem) -> bool:
        """Reduce v into the basis; True when the span grew, False when v
        already lies in it (closure lemma: see left_ideal_span).  The
        one-element case of add_all."""
        return self.add_all([v])[0]

    def add_all(self, elements) -> list[bool]:
        """[self.add(v) for v in elements]: every element's coordinates are
        read through one weightfn_to_coeffs call, and the rows are reduced in
        order.  Raises ValueError unless every element lies in one context."""
        elements = list(elements)
        rows = _elem_coords(elements)
        return [self.add_coords(row, v.ctx.p) is not None for v, row in zip(elements, rows)]

    def add_coords(self, row: dict[int, int], p: int) -> dict[int, int] | None:
        """Reduce a sparse coordinate row (consumed) by its own pivots.

        While the row's lowest index is a pivot, that entry is cleared with
        the pivot's row, which only touches higher indices.  Returns the new
        normalized basis row, or None when the row already lies in the span.
        """
        while row:
            piv = min(row)
            rw = self.rows.get(piv)
            if rw is None:
                break
            _sub_multiple(row, rw, row[piv], p)
        else:
            return None
        inv = inv_mod_p(row[piv], p)
        row = {c: val * inv % p for c, val in row.items()}
        self.rows[piv] = row
        return row


def _elem_coords(elements: list[HyperElem]) -> list[dict[int, int]]:
    # coordinate index of Y^(m) C(H,n) X^(m') is (m * p^r + m') * p^r' + n;
    # one conversion of every element's stacked torus factors, and each
    # element's coordinates in ascending index order
    if len({v.ctx for v in elements}) > 1:
        raise ValueError("the elements do not all lie in one context")
    terms = [v.terms for v in elements]
    rows = [f for t in terms for f in t.values()]
    if not rows:
        return [{} for _ in elements]
    ctx = elements[0].ctx
    c = weightfn_to_coeffs(np.stack(rows), ctx)
    base = np.array([(m * ctx.xy_range + mp_) * ctx.q for t in terms for m, mp_ in t])
    k, n = np.nonzero(c)
    idx, val = (base[k] + n).tolist(), c[k, n].tolist()
    # k ascends, so each element's entries are one run, cut at its first row
    cuts = np.searchsorted(k, np.cumsum([0] + [len(t) for t in terms])).tolist()
    return [dict(zip(idx[lo:hi], val[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


def _sub_multiple(row: dict[int, int], other: dict[int, int], coef: int, p: int) -> None:
    # row -= coef * other over F_p, in place, keeping row sparse
    for c, val in other.items():
        nv = (row.get(c, 0) - coef * val) % p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def left_ideal_span(e: HyperElem) -> IdealBasis:
    """Echelon basis of the left ideal generated by e.

    Closure under left multiplication by the algebra generators
    X^(p^i), Y^(p^i) (i < r) and C(H, p^l) (l < rprime): each element
    that grows the span is multiplied by each generator and fed back.
    Closure lemma: the span S of the accepted elements holds e and each
    g*w of an accepted w, so g*S lies in S by linearity; S is the ideal.
    """
    if e.is_zero():
        raise ValueError("the zero element spans nothing")
    ctx = e.ctx
    p = ctx.p
    gens = [gen_x(p**i, ctx) for i in range(ctx.r)]
    gens += [gen_y(p**i, ctx) for i in range(ctx.r)]
    gens += [gen_h_binom(p**l, ctx) for l in range(ctx.rprime)]
    basis = IdealBasis()
    work = [e]
    while work:
        w = work.pop()
        if basis.add(w):
            work.extend(g * w for g in gens)
    return basis


def left_ideal_dim(e: HyperElem) -> int:
    """dim A e for a nonzero homogeneous left weight vector e.

    Weight-block lemma (module docstring): A e is the direct sum over d of
    span{Y^(a) X^(a+d) e}, so its dimension is the sum of the block ranks.
    Raises ValueError outside the lemma's hypotheses.
    """
    return _ideal_pass(e, _x_sum(e.ctx))[1]


def _x_sum(ctx: AlgebraCtx) -> HyperElem:
    """S = sum_{b < p**r} X^(b), the left factor of the grading lemma."""
    ones = np.ones(ctx.q, dtype=np.int64)
    return HyperElem(ctx, {(0, b): ones for b in range(ctx.xy_range)})


def _ideal_pass(e: HyperElem, xsum: HyperElem) -> tuple[int, int, int]:
    """(weight, dim A e, top X exponent) of e from one product S e, where
    xsum is S = _x_sum(e.ctx).

    Grading lemma (module docstring): the degree-(d0 + b) terms of S e are
    X^(b) e, so one coordinate read of S e, grouped by b, gives every X^(b) e.
    """
    nu = weight_of_idempotent(e)  # raises unless e is a nonzero left weight vector
    degrees = {mp_ - m for m, mp_ in e.terms}
    if len(degrees) != 1:
        raise ValueError("element is not homogeneous")
    (d0,) = degrees
    ctx = e.ctx
    p, q, nmax = ctx.p, ctx.q, ctx.xy_range
    stride = nmax * q  # coordinate step from Y^(m) to Y^(m+1)
    pas = ctx.pascal.tolist()
    # coordinate idx of Y^(m) C(H,n) X^(m') lies in X^(b) e for b = m' - m - d0
    by_b: dict[int, dict[int, list[tuple[int, int]]]] = {}
    (coords,) = _elem_coords([xsum * e])
    for idx, val in coords.items():
        m, mp_ = divmod(idx // q, nmax)
        by_b.setdefault(mp_ - m - d0, {}).setdefault(m, []).append((idx, val))
    blocks: dict[int, IdealBasis] = {}
    for b in sorted(by_b):
        by_m = by_b[b]  # the coordinates of X^(b) e, by their Y exponent m
        for a in range(nmax):
            # Y^(a) Y^(m) C(H,n) X^(m') = C(a+m, a) Y^(a+m) C(H,n) X^(m'); the
            # entry drops when a + m >= p**r, where Kummer gives C(a+m, a) = 0
            # (the product kernel's bound), so the p**r table holds every read
            shift = a * stride
            row: dict[int, int] = {}
            for m, entries in by_m.items():
                k = pas[a + m][a] if a + m < nmax else 0
                if k:
                    row.update((idx + shift, k * val % p) for idx, val in entries)
            if row:
                # the block of Y^(a) X^(b) e, by degree relative to e
                blocks.setdefault(b - a, IdealBasis()).add_coords(row, p)
    # the largest b with X^(b) e nonzero, as top_x_exponent finds (X^(0) e = e)
    return nu, sum(basis.dim for basis in blocks.values()), max(by_b)


@dataclass(frozen=True)
class PimLabel:
    """Naming data of a projective indecomposable: digit vector, its value
    lambda' and the torus part lambda'', plus the predicted dimension."""

    betas: tuple[int, ...]
    lambda_prime: int
    lambda_double_prime: int
    dim: int


def _signed_digits(label: TupleLabel, p: int) -> tuple[int, int]:
    # (s, t): s = sum_i b_i p**i with b_i = a_i - p in cases A/C and a_i in
    # cases B/D, and the torus part t = a' + 1 if s < 0, else a'
    s = sum((pr.a - p if pr.case in ("A", "C") else pr.a) * p**i for i, pr in enumerate(label.pairs))
    return s, (label.aprime or 0) + (s < 0)


def pim_label_closed_form(label: TupleLabel, ctx: AlgebraCtx) -> PimLabel:
    """Predict the projective cover the label's idempotent generates.

    Digits: beta_i = p - 2j_i - 1 in cases B/C and 2j_i - 1 in cases A/D.
    The torus part is a' when the signed weight sum is non-negative and
    a' + 1 (wrapping to 0 at the top block) otherwise.
    """
    p = ctx.p
    betas = [p - pr.two_j - 1 if pr.case in ("B", "C") else pr.two_j - 1 for pr in label.pairs]
    lam1 = sum(beta * p**i for i, beta in enumerate(betas))
    lam2 = _signed_digits(label, p)[1] % p ** (ctx.rprime - ctx.r)
    dim = 1
    for beta in betas:
        dim *= p if beta == p - 1 else 2 * p
    return PimLabel(tuple(betas), lam1, lam2, dim)


def predicted_weight(label: TupleLabel, ctx: AlgebraCtx) -> int:
    """Torus weight of the label's idempotent: sum_i b_i p**i + lambda'' p**r mod q."""
    s, t = _signed_digits(label, ctx.p)
    return (s + t * ctx.p**ctx.r) % ctx.q


def predicted_top_x(label: TupleLabel, p: int) -> int:
    """Largest surviving X exponent, digitwise p-1 minus the minimal XY power."""
    return sum((p - 1 - min_xy_power(pr, p)) * p**i for i, pr in enumerate(label.pairs))


def top_x_exponent(e: HyperElem) -> int:
    """Largest n < p**r with X^(n) e nonzero, by descending scan."""
    if e.is_zero():
        raise ValueError("the zero element has no top exponent")
    ctx = e.ctx
    for n in range(ctx.xy_range - 1, 0, -1):
        if not (gen_x(n, ctx) * e).is_zero():
            return n
    return 0


def weight_of_idempotent(e: HyperElem) -> int:
    """The nu with mu_nu e = e for the depth-rprime weight projector mu_nu, read
    from supports (`algebra.left_weight`); ValueError unless e is a weight vector."""
    return left_weight(e)[0]


def pim_rows(ctx: AlgebraCtx) -> list[dict]:
    """One verification row per label: predicted vs computed module data."""
    out = []
    xsum = _x_sum(ctx)
    labels = enumerate_labels(ctx)
    for label, w, x in zip(labels, *tuple_coords(labels, ctx)):
        pl = pim_label_closed_form(label, ctx)
        nu, dim, t = _ideal_pass(from_weight_coords(ctx, w, x), xsum)
        ok = (dim, nu, t) == (pl.dim, predicted_weight(label, ctx), predicted_top_x(label, ctx.p))
        out.append(
            {
                "label": format_label(label),
                "weight": nu,
                "top_x": t,
                "lambda_prime": pl.lambda_prime,
                "lambda_double_prime": pl.lambda_double_prime,
                "predicted_dim": pl.dim,
                "computed_dim": dim,
                "status": "PASS" if ok else "FAIL",
            }
        )
    return out
