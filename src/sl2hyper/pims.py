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
coordinates.  left_ideal_span, the closure under the algebra generators,
is kept as the independent oracle.

IdealBasis.add_coords is the package's one row reduction over F_p: the
degree blocks above, left-ideal spans and the split-product rank in verify
are all built through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraCtx,
    HyperElem,
    coeffs_to_weightfn,
    gen_h_binom,
    gen_x,
    gen_y,
    weightfn_to_coeffs,
)
from .idempotents import (
    TupleLabel,
    enumerate_labels,
    format_label,
    min_xy_power,
    tuple_idempotent,
    weight_projector,
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
    """Reduced row-echelon basis in the normal-form coordinate space:
    rows maps each pivot coordinate to its normalized sparse row."""

    rows: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add(self, v: HyperElem) -> HyperElem | None:
        """Reduce v into the basis; the new basis row as an element, or
        None when v already lies in the span."""
        row = self.add_coords(_elem_coords(v), v.ctx.p)
        return None if row is None else _coords_elem(row, v.ctx)

    def add_coords(self, row: dict[int, int], p: int) -> dict[int, int] | None:
        """Reduce a sparse coordinate row (consumed) with lowest-index pivoting.

        Returns the new normalized basis row, or None when the row already
        lies in the span.
        """
        for pv, rw in self.rows.items():
            if row.get(pv):
                _sub_multiple(row, rw, row[pv], p)
        if not row:
            return None
        piv = min(row)
        inv = inv_mod_p(row[piv], p)
        row = {c: val * inv % p for c, val in row.items()}
        for rw in self.rows.values():
            if rw.get(piv):
                _sub_multiple(rw, row, rw[piv], p)
        self.rows[piv] = row
        return row


def _elem_coords(v: HyperElem) -> dict[int, int]:
    # coordinate index of Y^(m) C(H,n) X^(m') is (m * p^r + m') * p^r' + n
    ctx = v.ctx
    out: dict[int, int] = {}
    for (m, mp_), f in v.terms.items():
        c = weightfn_to_coeffs(f, ctx)
        base = (m * ctx.xy_range + mp_) * ctx.q
        for n in np.nonzero(c)[0]:
            out[base + int(n)] = int(c[n])
    return out


def _coords_elem(row: dict[int, int], ctx: AlgebraCtx) -> HyperElem:
    groups: dict[tuple[int, int], np.ndarray] = {}
    for idx, val in row.items():
        key, n = divmod(idx, ctx.q)
        m, mp_ = divmod(key, ctx.xy_range)
        groups.setdefault((m, mp_), np.zeros(ctx.q, dtype=np.int64))[n] = val
    return HyperElem(ctx, {k: coeffs_to_weightfn(c, ctx) for k, c in groups.items()})


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
    X^(p^i), Y^(p^i) (i < r) and C(H, p^l) (l < rprime): every new basis
    row is multiplied by each generator and fed back to IdealBasis.add.
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
        w = basis.add(work.pop())
        if w is not None:
            work.extend(g * w for g in gens)
    return basis


def left_ideal_dim(e: HyperElem) -> int:
    """dim A e for a nonzero homogeneous left weight vector e.

    Weight-block lemma (module docstring): A e is the direct sum over d of
    span{Y^(a) X^(a+d) e}, so its dimension is the sum of the block ranks.
    Raises ValueError outside the lemma's hypotheses.
    """
    weight_of_idempotent(e)  # raises unless e is a nonzero left weight vector
    if len({mp_ - m for m, mp_ in e.terms}) != 1:
        raise ValueError("element is not homogeneous")
    ctx = e.ctx
    p, nmax = ctx.p, ctx.xy_range
    stride = nmax * ctx.q  # coordinate step from Y^(m) to Y^(m+1)
    pas = ctx.pascal[:nmax, :nmax].tolist()
    blocks: dict[int, IdealBasis] = {}
    for b in range(nmax):
        by_m: dict[int, list[tuple[int, int]]] = {}
        for idx, val in _elem_coords(gen_x(b, ctx) * e).items():
            by_m.setdefault(idx // stride, []).append((idx, val))
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
    return sum(basis.dim for basis in blocks.values())


@dataclass(frozen=True)
class PimLabel:
    """Naming data of a projective indecomposable: digit vector, its value
    lambda' and the torus part lambda'', plus the predicted dimension."""

    betas: tuple[int, ...]
    lambda_prime: int
    lambda_double_prime: int
    dim: int


def _b_digit(pair, p: int) -> int:
    return pair.a - p if pair.case in ("A", "C") else pair.a


def pim_label_closed_form(label: TupleLabel, ctx: AlgebraCtx) -> PimLabel:
    """Predict the projective cover the label's idempotent generates.

    Digits: beta_i = p - 2j_i - 1 in cases B/C and 2j_i - 1 in cases A/D.
    The torus part is a' when the signed weight sum is non-negative and
    a' + 1 (wrapping to 0 at the top block) otherwise.
    """
    p = ctx.p
    betas = []
    bsum = 0
    for i, pr in enumerate(label.pairs):
        betas.append(p - pr.two_j - 1 if pr.case in ("B", "C") else pr.two_j - 1)
        bsum += _b_digit(pr, p) * p**i
    lam1 = sum(beta * p**i for i, beta in enumerate(betas))
    blocks = p ** (ctx.rprime - ctx.r)
    ap = label.aprime or 0
    lam2 = ap if bsum >= 0 else (ap + 1) % blocks
    dim = 1
    for beta in betas:
        dim *= p if beta == p - 1 else 2 * p
    return PimLabel(tuple(betas), lam1, lam2, dim)


def predicted_weight(label: TupleLabel, ctx: AlgebraCtx) -> int:
    """Torus weight of the label's idempotent from the signed digits b_i."""
    p = ctx.p
    bsum = sum(_b_digit(pr, p) * p**i for i, pr in enumerate(label.pairs))
    nu = bsum + (label.aprime or 0) * p**ctx.r
    if bsum < 0:
        nu += p**ctx.r
    return nu % ctx.q


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
    """The unique nu whose depth-rprime weight projector fixes e under left
    multiplication; raises if e is not a torus weight vector."""
    if e.is_zero():
        raise ValueError("the zero element has no weight")
    ctx = e.ctx
    (m, _), f = next(iter(e.terms.items()))
    nu = (int(np.nonzero(f)[0][0]) - 2 * m) % ctx.q
    if weight_projector(nu, ctx.rprime, ctx) * e != e:
        raise ValueError("element is not a torus weight vector")
    return nu


def pim_rows(ctx: AlgebraCtx) -> list[dict]:
    """One verification row per label: predicted vs computed module data."""
    out = []
    for label in enumerate_labels(ctx):
        e = tuple_idempotent(label, ctx)
        pl = pim_label_closed_form(label, ctx)
        nu = weight_of_idempotent(e)
        t = top_x_exponent(e)
        dim = left_ideal_dim(e)
        ok = (
            dim == pl.dim
            and nu == predicted_weight(label, ctx)
            and t == predicted_top_x(label, ctx.p)
        )
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
