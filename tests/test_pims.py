import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2hyper import pims
from sl2hyper.algebra import AlgebraCtx, HyperElem, gen_h_binom, gen_x, gen_y, one, zero
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
