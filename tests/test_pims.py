import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2hyper import pims
from sl2hyper.algebra import (
    AlgebraCtx,
    HyperElem,
    gen_h_binom,
    gen_x,
    gen_y,
    one,
    pbw_elem,
    weightfn_to_coeffs,
    zero,
)
from sl2hyper.idempotents import (
    TupleLabel,
    all_pairs,
    enumerate_labels,
    level1_idempotent,
    make_pair,
    tuple_idempotent,
    weight_projector,
)
from sl2hyper.pims import (
    IdealBasis,
    left_ideal_dim,
    left_ideal_span,
    pim_label_closed_form,
    pim_rows,
    predicted_top_x,
    predicted_weight,
    top_x_exponent,
    weight_of_idempotent,
    weyl_action,
)


def test_weyl_action_examples():
    ctx = AlgebraCtx(3, 1, 1)
    x1 = weyl_action(gen_x(1, ctx), 1)
    assert x1.tolist() == [[0, 1], [0, 0]]  # kills the highest vector, v1 -> v0
    h1 = weyl_action(gen_h_binom(1, ctx), 1)
    assert h1.tolist() == [[1, 0], [0, 2]]  # C(1,1)=1, C(-1,1)=-1
    y1 = weyl_action(gen_y(1, ctx), 2)
    assert y1.tolist() == [[0, 0, 0], [1, 0, 0], [0, 2, 0]]  # C(i+1, 1) steps


def test_weyl_action_unit():
    for lam in range(6):
        assert np.array_equal(weyl_action(one(AlgebraCtx(2, 2, 2)), lam), np.eye(lam + 1, dtype=int) % 2)


def test_left_ideal_whole_algebra():
    ctx = AlgebraCtx(2, 1, 1)
    assert left_ideal_span(one(ctx)).dim == 8


def test_left_ideal_p2_pims():
    ctx = AlgebraCtx(2, 1, 1)
    dims = {}
    for pr in all_pairs(2):
        e = level1_idempotent(pr, ctx)
        dims[(pr.a, pr.two_j)] = left_ideal_span(e).dim
    assert dims == {(0, 1): 4, (1, 0): 2, (1, 2): 2}


def test_left_ideal_rejects_zero():
    with pytest.raises(ValueError):
        left_ideal_span(zero(AlgebraCtx(2, 1, 1)))


def test_p3_census_multiset():
    ctx = AlgebraCtx(3, 1, 1)
    rows = pim_rows(ctx)
    assert sorted(r["computed_dim"] for r in rows) == [3, 3, 3, 6, 6, 6]
    assert sorted(r["lambda_prime"] for r in rows) == [0, 1, 1, 2, 2, 2]
    assert sum(r["computed_dim"] for r in rows) == 27
    assert all(r["status"] == "PASS" for r in rows)


def test_top_x_examples():
    ctx = AlgebraCtx(2, 1, 1)
    assert top_x_exponent(level1_idempotent(make_pair(1, 0, 2), ctx)) == 1
    assert top_x_exponent(level1_idempotent(make_pair(1, 2, 2), ctx)) == 0
    assert top_x_exponent(one(ctx)) == 1
    assert top_x_exponent(one(AlgebraCtx(3, 2, 2))) == 8


def test_weight_examples():
    ctx = AlgebraCtx(2, 1, 1)
    for a in range(2):
        assert weight_of_idempotent(weight_projector(a, 1, ctx)) == a
    # b = a - p for case C: weight of the Steinberg-type idempotent is -1 mod 2
    assert weight_of_idempotent(level1_idempotent(make_pair(1, 0, 2), ctx)) == 1
    ctx3 = AlgebraCtx(3, 1, 1)
    # all-B/D labels keep weight sum a_i p^i
    assert weight_of_idempotent(level1_idempotent(make_pair(0, 2, 3), ctx3)) == 0
    assert weight_of_idempotent(level1_idempotent(make_pair(1, 2, 3), ctx3)) == 1
    with pytest.raises(ValueError):
        weight_of_idempotent(gen_x(1, ctx3) + one(ctx3))


def test_pim_label_closed_form_examples():
    # p=2, pair (1,0) is case C: beta=1, b=-1, so the torus part bumps by one
    ctx = AlgebraCtx(2, 1, 2)
    lb0 = TupleLabel((make_pair(1, 0, 2),), 0)
    pl0 = pim_label_closed_form(lb0, ctx)
    assert pl0.betas == (1,) and pl0.lambda_prime == 1
    assert pl0.lambda_double_prime == 1 and pl0.dim == 2
    # wraparound at the top block index
    lb1 = TupleLabel((make_pair(1, 0, 2),), 1)
    assert pim_label_closed_form(lb1, ctx).lambda_double_prime == 0
    # p=3, pair (0, j=1) is case B: beta = 0, b = 0, torus part stays
    ctx3 = AlgebraCtx(3, 1, 2)
    lb3 = TupleLabel((make_pair(0, 2, 3),), 2)
    pl3 = pim_label_closed_form(lb3, ctx3)
    assert pl3.betas == (0,) and pl3.lambda_double_prime == 2 and pl3.dim == 6


def test_predicted_weight_branches():
    ctx = AlgebraCtx(2, 1, 2)
    # case C: b = -1 < 0 so nu = -1 + p^r + a' p^r
    assert predicted_weight(TupleLabel((make_pair(1, 0, 2),), 0), ctx) == 1
    assert predicted_weight(TupleLabel((make_pair(1, 0, 2),), 1), ctx) == 3
    # case D: b = 1 >= 0
    assert predicted_weight(TupleLabel((make_pair(1, 2, 2),), 1), ctx) == 3


def test_predicted_top_x_closed_form():
    p = 3
    ctx = AlgebraCtx(p, 2, 2)
    for label in enumerate_labels(ctx):
        e = tuple_idempotent(label, ctx)
        assert top_x_exponent(e) == predicted_top_x(label, p)


@pytest.mark.parametrize("p,r,rp", [(2, 1, 1), (2, 2, 2), (2, 1, 2), (3, 1, 1)])
def test_pim_rows_pass(p, r, rp):
    ctx = AlgebraCtx(p, r, rp)
    rows = pim_rows(ctx)
    assert all(row["status"] == "PASS" for row in rows)
    assert sum(row["computed_dim"] for row in rows) == p ** (2 * r + rp)


ORACLE_CONTEXTS = [
    (2, 1, 1), (2, 2, 2), (2, 1, 2), (2, 2, 3), (3, 1, 1),
    (3, 2, 2), (3, 1, 2), (3, 2, 3), (5, 1, 1), (5, 1, 2),
]


@pytest.mark.parametrize("p,r,rp", ORACLE_CONTEXTS)
def test_left_ideal_dim_matches_span_on_idempotents(p, r, rp):
    ctx = AlgebraCtx(p, r, rp)
    for label in enumerate_labels(ctx):
        e = tuple_idempotent(label, ctx)
        assert left_ideal_dim(e) == left_ideal_span(e).dim, format_label(label)


@st.composite
def homogeneous_weight_vector(draw):
    # mu_nu * u for u of one random degree d: a left weight vector of weight nu
    p, r, rp = draw(st.sampled_from(ORACLE_CONTEXTS[:7]))
    ctx = AlgebraCtx(p, r, rp)
    nmax, q = ctx.xy_range, ctx.q
    d = draw(st.integers(1 - nmax, nmax - 1))
    ms = range(max(0, -d), min(nmax, nmax - d))
    terms = {}
    for m in draw(st.lists(st.sampled_from(ms), min_size=1, max_size=3, unique=True)):
        terms[(m, m + d)] = np.array(draw(st.lists(st.integers(0, p - 1), min_size=q, max_size=q)))
    nu = draw(st.integers(0, q - 1))
    return weight_projector(nu, rp, ctx) * HyperElem(ctx, terms)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(homogeneous_weight_vector())
def test_left_ideal_dim_matches_span_on_weight_vectors(e):
    assume(not e.is_zero())
    assert left_ideal_dim(e) == left_ideal_span(e).dim
    # pim_rows' one pass: its weight against the explicit product mu_nu e = e
    # (the support reader is shared with weight_of_idempotent), its top X
    # against the descending scan
    nu, _, top = pims._ideal_pass(e)
    assert weight_projector(nu, e.ctx.rprime, e.ctx) * e == e
    assert top == top_x_exponent(e)


def test_left_ideal_dim_rejects_inputs_outside_the_lemma():
    ctx = AlgebraCtx(2, 1, 2)
    mu = weight_projector(1, 2, ctx)
    with pytest.raises(ValueError):
        left_ideal_dim(zero(ctx))
    with pytest.raises(ValueError, match="homogeneous"):
        left_ideal_dim(mu * (one(ctx) + gen_x(1, ctx)))  # weight 1, degrees 0 and 1
    with pytest.raises(ValueError, match="weight vector"):
        left_ideal_dim(one(ctx))
    with pytest.raises(ValueError, match="weight vector"):
        left_ideal_dim(gen_x(1, ctx))  # homogeneous, every weight


def test_ideal_basis_add_reports_growth():
    # add returns True exactly when the span grows
    ctx = AlgebraCtx(3, 1, 1)
    vs = (one(ctx), gen_x(1, ctx), gen_h_binom(1, ctx), gen_x(1, ctx) * gen_h_binom(2, ctx))
    basis = IdealBasis()
    for dim, v in enumerate(vs, 1):
        assert basis.add(v) is True and basis.dim == dim
    assert basis.add(2 * vs[1]) is False
    assert basis.add(vs[0] + 2 * vs[2] + vs[3]) is False
    assert basis.add(zero(ctx)) is False
    assert basis.dim == len(vs)


def dense_rank(rows, p):
    # Gauss-Jordan elimination over F_p on dense lists, independent of IdealBasis
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(a - row[col] * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ideal_basis_rank_matches_dense_rank(p):
    # random sparse rows, a third of them combinations of earlier ones: the
    # span grows exactly when the dense rank does, and the basis stays in
    # row-echelon form (each row normalized at its lowest index, its pivot)
    rng = random.Random(1000 + p)
    ncols = 14
    for _ in range(40):
        basis, dense = IdealBasis(), []
        for _ in range(rng.randrange(1, 18)):
            if dense and rng.random() < 0.35:
                picks = rng.sample(dense, rng.randrange(1, len(dense) + 1))
                row = [sum(rng.randrange(p) * r[c] for r in picks) % p for c in range(ncols)]
            else:
                row = [0] * ncols
                for c in rng.sample(range(ncols), rng.randrange(1, 5)):
                    row[c] = rng.randrange(1, p)
            before = dense_rank(dense, p)
            dense.append(row)
            added = basis.add_coords({c: v for c, v in enumerate(row) if v}, p)
            assert (added is not None) == (dense_rank(dense, p) > before)
            assert basis.dim == dense_rank(dense, p)
        for piv, row in basis.rows.items():
            assert min(row) == piv and row[piv] == 1
            assert all(0 < v < p for v in row.values())


def elem_dense_coords(v):
    # coordinates of v in the PBW basis Y^(m) C(H,n) X^(m'), from the public API
    ctx = v.ctx
    out = [0] * (ctx.xy_range**2 * ctx.q)
    for (m, mp_), f in v.terms.items():
        base = (m * ctx.xy_range + mp_) * ctx.q
        out[base : base + ctx.q] = weightfn_to_coeffs(f, ctx).tolist()
    return out


def test_ideal_basis_add_is_false_exactly_in_the_span():
    rng = random.Random(2024)
    for ctx in (AlgebraCtx(2, 1, 2), AlgebraCtx(3, 1, 1), AlgebraCtx(3, 2, 2)):
        basis, seen, dense = IdealBasis(), [], []
        for _ in range(30):
            if seen and rng.random() < 0.4:
                v = zero(ctx)
                for u in rng.sample(seen, min(3, len(seen))):
                    v = v + rng.randrange(ctx.p) * u
            else:
                v = zero(ctx)
                for _ in range(rng.randrange(1, 4)):
                    m, mp_ = rng.randrange(ctx.xy_range), rng.randrange(ctx.xy_range)
                    v = v + rng.randrange(1, ctx.p) * pbw_elem(m, rng.randrange(ctx.q), mp_, ctx)
            before = dense_rank(dense, ctx.p)
            dense.append(elem_dense_coords(v))
            assert basis.add(v) is (dense_rank(dense, ctx.p) > before)
            assert basis.dim == dense_rank(dense, ctx.p)
            seen.append(v)
