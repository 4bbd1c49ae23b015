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

which needs only the p**r products X^(b) e; Y^(a) acts on their
coordinates.  The same products give the top X exponent, the largest b
with X^(b) e nonzero, so pim_rows reads weight, dimension and top X in one
pass.  left_ideal_span (the closure under the algebra generators) and
top_x_exponent stay public as its oracles; the weight is read from supports.

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
    tuple_idempotent,
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
        already lies in it (closure lemma: see left_ideal_span)."""
        return self.add_coords(_elem_coords(v), v.ctx.p) is not None

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


def _elem_coords(v: HyperElem) -> dict[int, int]:
    # coordinate index of Y^(m) C(H,n) X^(m') is (m * p^r + m') * p^r' + n;
    # one conversion of the stacked torus factors, in ascending index order
    if v.is_zero():
        return {}
    ctx = v.ctx
    c = weightfn_to_coeffs(np.stack(list(v.terms.values())), ctx)
    base = np.array([(m * ctx.xy_range + mp_) * ctx.q for m, mp_ in v.terms])
    k, n = np.nonzero(c)
    return dict(zip((base[k] + n).tolist(), c[k, n].tolist()))


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
    return _ideal_pass(e)[1]


def _ideal_pass(e: HyperElem) -> tuple[int, int, int]:
    """(weight, dim A e, top X exponent) of e from one pass over the X^(b) e."""
    nu = weight_of_idempotent(e)  # raises unless e is a nonzero left weight vector
    if len({mp_ - m for m, mp_ in e.terms}) != 1:
        raise ValueError("element is not homogeneous")
    ctx = e.ctx
    p, nmax = ctx.p, ctx.xy_range
    stride = nmax * ctx.q  # coordinate step from Y^(m) to Y^(m+1)
    pas = ctx.pascal[:nmax, :nmax].tolist()
    blocks: dict[int, IdealBasis] = {}
    top = 0
    for b in range(nmax):
        by_m: dict[int, list[tuple[int, int]]] = {}
        for idx, val in _elem_coords(gen_x(b, ctx) * e).items():
            by_m.setdefault(idx // stride, []).append((idx, val))
        if by_m:
            top = b  # the largest b with X^(b) e nonzero, as top_x_exponent finds
        for a in range(nmax):
            # Y^(a) Y^(m) C(H,n) X^(m') = C(a+m, a) Y^(a+m) C(H,n) X^(m'); the
            # entry drops when a + m >= p**r, where Kummer gives C(a+m, a) = 0
            # (the product kernel's bound), so pas needs only the p**r corner
            shift = a * stride
            row: dict[int, int] = {}
            for m, entries in by_m.items():
                k = pas[a + m][a] if a + m < nmax else 0
                if k:
                    row.update((idx + shift, k * val % p) for idx, val in entries)
            if row:
                # the block of Y^(a) X^(b) e, by degree relative to e
                blocks.setdefault(b - a, IdealBasis()).add_coords(row, p)
    return nu, sum(basis.dim for basis in blocks.values()), top


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
    for label in enumerate_labels(ctx):
        e = tuple_idempotent(label, ctx)
        pl = pim_label_closed_form(label, ctx)
        nu, dim, t = _ideal_pass(e)
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
