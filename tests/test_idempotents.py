import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2hyper.idempotents as idempotents
from sl2hyper.algebra import (
    AlgebraCtx,
    HyperElem,
    embed,
    from_weight_coords,
    fr_prime,
    gen_x,
    gen_y,
    one,
    pbw_elem,
    weight_coords,
    zero,
)
from sl2hyper.idempotents import (
    LabelError,
    TupleLabel,
    all_pairs,
    classify_case,
    enumerate_labels,
    format_label,
    level1_idempotent,
    make_pair,
    min_xy_power,
    min_yx_power,
    parse_label,
    recursion_shift,
    tuple_coords,
    tuple_idempotent,
    upper_block_projector,
    weight_projector,
    x_power,
    xy_coeff_table,
    xy_expansion,
    y_power,
    yx_coeff_table,
    yx_expansion,
    z_operator,
    z_operators,
)
from sl2hyper.modp import inv_mod_p

SEED = 20240601


def rand_elem(rng, ctx, nterms=2):
    out = zero(ctx)
    for _ in range(nterms):
        m, mp = rng.randrange(ctx.xy_range), rng.randrange(ctx.xy_range)
        n = rng.randrange(ctx.q)
        out = out + rng.randrange(1, ctx.p) * pbw_elem(m, n, mp, ctx)
    return out


def test_classify_examples():
    assert classify_case(2, 4, 5) == "A"
    assert classify_case(0, 1, 2) == "B"
    assert classify_case(3, 2, 5) == "C"
    assert classify_case(1, 2, 2) == "D"
    with pytest.raises(ValueError):
        classify_case(9, 0, 5)
    with pytest.raises(ValueError):
        classify_case(1, 1, 5)  # odd two_j for odd p
    with pytest.raises(ValueError):
        classify_case(0, 0, 2)  # not a valid p=2 pair


def test_case_partition():
    for p in (3, 5, 7, 11):
        tags = [pr.case for pr in all_pairs(p)]
        assert len(tags) == p * (p + 1) // 2
        for pr in all_pairs(p):
            assert pr.case in "ABCD"
            if pr.a % 2 == 0:
                assert pr.case in "AB"
            else:
                assert pr.case in "CD"


def test_min_power_examples():
    assert min_yx_power(make_pair(0, 2, 3), 3) == 0
    assert min_yx_power(make_pair(0, 0, 3), 3) == 1
    assert min_yx_power(make_pair(1, 0, 2), 2) == 1
    assert min_xy_power(make_pair(1, 2, 2), 2) == 1
    assert min_xy_power(make_pair(1, 0, 2), 2) == 0
    assert min_xy_power(make_pair(0, 1, 2), 2) == 0


def test_min_xy_is_mirror_of_min_yx():
    for p in (3, 5, 7, 11):
        for pr in all_pairs(p):
            mirror = make_pair((p - pr.a) % p, pr.two_j, p)
            assert min_xy_power(pr, p) == min_yx_power(mirror, p)


def test_recursion_shift():
    assert recursion_shift(make_pair(2, 4, 5), 5) == 2
    assert recursion_shift(make_pair(3, 2, 5), 5) == 1
    assert recursion_shift(make_pair(1, 0, 2), 2) == 1
    with pytest.raises(ValueError):
        recursion_shift(make_pair(0, 0, 5), 5)  # case B
    for p in (2, 3, 5, 7):
        for pr in all_pairs(p):
            if pr.case in ("A", "C"):
                s = recursion_shift(pr, p)
                assert (pr.a + 2 * s) % p in (0, 1)
                assert min_yx_power(pr, p) >= s


def test_weight_projectors():
    ctx = AlgebraCtx(3, 1, 1)
    assert weight_projector(0, 1, ctx).terms[(0, 0)].tolist() == [1, 0, 0]
    for p, r, rp in [(3, 1, 1), (2, 2, 3), (5, 1, 1)]:
        ctx = AlgebraCtx(p, r, rp)
        for s in range(1, rp + 1):
            mus = [weight_projector(a, s, ctx) for a in range(p**s)]
            total = zero(ctx)
            for mu in mus:
                total = total + mu
            assert total == one(ctx)
            for a, mu in enumerate(mus):
                assert mu * mu == mu
                for b in range(a + 1, p**s):
                    assert (mu * mus[b]).is_zero()


def test_block_projector_is_raised_weight_projector():
    from sl2hyper.algebra import fr_prime

    for p, r, rp in [(2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 2, 3)]:
        ctx = AlgebraCtx(p, r, rp)
        for ap in range(p ** (rp - r)):
            small = weight_projector(ap, rp - r, AlgebraCtx(p, 1, rp - r))
            lifted = small
            for _ in range(r):
                lifted = fr_prime(lifted)
            got = upper_block_projector(ap, ctx)
            assert lifted.terms[(0, 0)].tolist() == got.terms[(0, 0)].tolist()


def test_level1_p2_table():
    ctx = AlgebraCtx(2, 1, 1)
    mu0 = weight_projector(0, 1, ctx)
    mu1 = weight_projector(1, 1, ctx)
    yx = gen_y(1, ctx) * gen_x(1, ctx)
    xy = gen_x(1, ctx) * gen_y(1, ctx)
    assert level1_idempotent(make_pair(0, 1, 2), ctx) == mu0
    assert level1_idempotent(make_pair(1, 0, 2), ctx) == mu1 * yx
    assert level1_idempotent(make_pair(1, 2, 2), ctx) == mu1 * xy
    # mu_1 Y X = mu_1 (X Y + 1)
    assert mu1 * yx == mu1 * (xy + one(ctx))


@pytest.mark.parametrize("p", [3, 5])
def test_level1_alternative_xy_form(p):
    # evaluating the selector at mu_a XY + ((a-1)/2)^2 gives the same element
    from sl2hyper.fpoly import selector_poly

    ctx = AlgebraCtx(p, 1, 1)
    half = inv_mod_p(2, p)
    xy = gen_x(1, ctx) * gen_y(1, ctx)
    for pr in all_pairs(p):
        mu = weight_projector(pr.a, 1, ctx)
        c0 = ((pr.a - 1) * half) ** 2 % p
        t = mu * xy + c0 * one(ctx)
        alt = zero(ctx)
        for c in reversed(selector_poly(pr.two_j // 2, p).coeffs):
            alt = alt * t + int(c) * one(ctx)
        assert alt * mu == level1_idempotent(pr, ctx)


def test_yx_expansion_examples():
    ctx = AlgebraCtx(2, 1, 1)
    mu1 = weight_projector(1, 1, ctx)
    e = mu1 * gen_y(1, ctx) * gen_x(1, ctx)
    got = yx_expansion(e, 1)
    assert got.coeffs == (0, 1) and got.min_power == 1
    got0 = yx_expansion(weight_projector(0, 1, ctx), 0)
    assert got0.coeffs == (1, 0) and got0.min_power == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_expansion_double_path(p):
    ctx = AlgebraCtx(p, 1, 1)
    for pr in all_pairs(p):
        e = level1_idempotent(pr, ctx)
        yx = yx_expansion(e, pr.a)
        xy = xy_expansion(e, pr.a)
        assert yx.coeffs == yx_coeff_table(pr, p)
        assert xy.coeffs == xy_coeff_table(pr, p)
        assert yx.min_power == min_yx_power(pr, p)
        assert xy.min_power == min_xy_power(pr, p)
        assert yx.coeffs[yx.min_power] != 0
        assert xy.coeffs[xy.min_power] != 0


def test_expansion_rejects_bad_shape():
    ctx = AlgebraCtx(3, 1, 1)
    with pytest.raises(ValueError):
        yx_expansion(gen_x(1, ctx), 0)
    with pytest.raises(ValueError):
        yx_expansion(weight_projector(1, 1, ctx), 0)  # wrong weight class
    with pytest.raises(ValueError):
        yx_expansion(one(AlgebraCtx(3, 2, 2)), 0)  # wrong context depth


def test_yx_expansion_rejects_zero_and_wrong_weight():
    ctx = AlgebraCtx(5, 1, 1)
    with pytest.raises(ValueError, match="element is zero"):
        yx_expansion(zero(ctx), 0)
    e = level1_idempotent(make_pair(2, 0, 5), ctx)
    assert yx_expansion(e, 7).coeffs == yx_expansion(e, 2).coeffs  # a is read mod p
    with pytest.raises(ValueError, match="element has weight 2, not 3"):
        yx_expansion(e, 3)
    with pytest.raises(ValueError, match="element has a term of degree 1"):
        yx_expansion(e + gen_x(1, ctx), 2)


def test_yx_product_identity():
    # mu_a Y^m X^m equals the step product in mu_a Y X
    for p in (2, 3, 5):
        ctx = AlgebraCtx(p, 1, 1)
        yx = gen_y(1, ctx) * gen_x(1, ctx)
        for a in range(p):
            mu = weight_projector(a, 1, ctx)
            base = mu * yx
            for m in range(p):
                lhs = mu * y_power(m, ctx) * x_power(m, ctx)
                rhs = mu
                for i in range(m):
                    rhs = rhs * (base - (i * (i + a + 1) % p) * one(ctx))
                assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_z_operator_laws(p):
    rng = random.Random(SEED)
    base = AlgebraCtx(p, 1, 1)
    tgt = AlgebraCtx(p, 2, 2)
    pairs = all_pairs(p)
    for pr in pairs:
        e_emb = embed(level1_idempotent(pr, base), tgt)
        assert z_operator(one(base), pr) == e_emb
        for _ in range(5):
            z1, z2 = rand_elem(rng, base), rand_elem(rng, base)
            assert z_operator(z1, pr) * z_operator(z2, pr) == z_operator(z1 * z2, pr)
            zz = z_operator(z1, pr)
            assert e_emb * zz == zz
            assert zz * e_emb == zz
            assert gen_x(p, tgt) * zz == z_operator(gen_x(1, base) * z1, pr)
            assert gen_y(p, tgt) * zz == z_operator(gen_y(1, base) * z1, pr)
    for pr1 in pairs:
        for pr2 in pairs:
            if pr1 != pr2:
                z1, z2 = rand_elem(rng, base), rand_elem(rng, base)
                assert (z_operator(z1, pr1) * z_operator(z2, pr2)).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_z_operators_equal_their_one_item_cases(p):
    # the batch against z_operator one item at a time and against its
    # definition by `*`: fr'(z) e for cases B/D, window fr'(z) X^s for A/C
    rng = random.Random(SEED + p)
    base, tgt = AlgebraCtx(p, 1, 1), AlgebraCtx(p, 2, 2)
    zs = [one(base), zero(base), *(rand_elem(rng, base, 1 + k % 3) for k in range(6)), one(base)]
    for pr in all_pairs(p):
        batch = z_operators(zs, pr)
        assert batch == [z_operator(z, pr) for z in zs]
        if pr.case in ("B", "D"):
            assert batch == [fr_prime(z) * level1_idempotent(pr, tgt) for z in zs]
        else:
            xs = x_power(recursion_shift(pr, p), tgt)
            assert batch == [idempotents._ac_window(pr, tgt) * fr_prime(z) * xs for z in zs]
        assert batch[0] == embed(level1_idempotent(pr, base), tgt)
        assert batch[1].is_zero() and batch[1].ctx == tgt
        assert z_operators([], pr) == [] and z_operators(iter(zs[2:4]), pr) == batch[2:4]


def test_z_operators_reject_mixed_contexts():
    pr = all_pairs(3)[0]
    with pytest.raises(ValueError, match="context mismatch"):
        z_operators([one(AlgebraCtx(3, 1, 1)), one(AlgebraCtx(3, 2, 2))], pr)


def test_window_product_collapse():
    # mu_a Fr'(z1) Fr'(z2) X^b = mu_a Fr'(z1 z2) X^b for 0 <= a <= b <= p-1
    from sl2hyper.algebra import fr_prime

    rng = random.Random(SEED)
    for p in (2, 3):
        src = AlgebraCtx(p, 1, 1)
        tgt = AlgebraCtx(p, 2, 2)
        for a in range(p):
            mu = weight_projector(a, 1, tgt)
            for b in range(a, p):
                for _ in range(5):
                    z1, z2 = rand_elem(rng, src), rand_elem(rng, src)
                    assert mu * fr_prime(z1) * fr_prime(z2) * x_power(b, tgt) == mu * fr_prime(
                        z1 * z2
                    ) * x_power(b, tgt)


def test_window_commutation():
    from sl2hyper.algebra import gen_h_binom

    for p in (2, 3, 5):
        ctx = AlgebraCtx(p, 2, 2)
        for pr in all_pairs(p):
            if pr.case not in ("A", "C"):
                continue
            s = recursion_shift(pr, p)
            mu = weight_projector(pr.a, 1, ctx)
            for m in range(min_yx_power(pr, p), p):
                window = mu * y_power(m, ctx) * x_power(m - s, ctx)
                for n in range(1, p):
                    assert gen_x(n * p, ctx) * window == window * gen_x(n * p, ctx)
                    assert gen_y(n * p, ctx) * window == window * gen_y(n * p, ctx)
                    h = gen_h_binom(n * p, ctx)
                    hprev = gen_h_binom((n - 1) * p, ctx) if n > 1 else one(ctx)
                    assert window * h == (h + hprev) * window


def test_tuple_recursion_base():
    for p in (2, 3, 5):
        ctx = AlgebraCtx(p, 1, 1)
        for pr in all_pairs(p):
            label = TupleLabel((pr,), None)
            assert tuple_idempotent(label, ctx) == level1_idempotent(pr, ctx)


@pytest.mark.parametrize("p", [2, 3])
def test_tuple_telescoping(p):
    # summing over the inner pair recovers the level-1 idempotent
    ctx = AlgebraCtx(p, 2, 2)
    for pr0 in all_pairs(p):
        total = zero(ctx)
        for pr1 in all_pairs(p):
            total = total + tuple_idempotent(TupleLabel((pr0, pr1), None), ctx)
        assert total == embed(level1_idempotent(pr0, AlgebraCtx(p, 1, 1)), ctx)


def test_tuple_weight_fixed_point():
    from sl2hyper.pims import predicted_weight

    for p, r in [(2, 2), (3, 2)]:
        ctx = AlgebraCtx(p, r, r)
        for label in enumerate_labels(ctx):
            e = tuple_idempotent(label, ctx)
            nu = predicted_weight(label, ctx)
            assert weight_projector(nu, r, ctx) * e == e


def direct_loop(label, ctx):
    # the paper's chain: level 1, then z_operator pair by pair in the
    # minimal contexts, then embed and cut by the block projector
    e = level1_idempotent(label.pairs[-1], AlgebraCtx(ctx.p, 1, 1))
    for pair in label.pairs[-2::-1]:
        e = z_operator(e, pair)
    e = embed(e, ctx)
    if label.aprime is not None:
        e = e * upper_block_projector(label.aprime, ctx)
    return e


@pytest.mark.parametrize(
    "p, r, rp",
    [(2, 3, 3), (3, 3, 3), (3, 2, 3), (2, 2, 4), (5, 2, 2), (2, 1, 3), (3, 1, 2), (2, 4, 5), (7, 2, 2)],
)
def test_shared_suffix_lift_matches_direct_loop(p, r, rp):
    # the tensor lemma (tuple_idempotent) against the chain it replaces; the
    # contexts with rprime > r and a negative digit sum, such as (3,2,3),
    # catch a' added before the digit sum is reduced mod p**r
    ctx = AlgebraCtx(p, r, rp)
    for label in enumerate_labels(ctx):
        assert tuple_idempotent(label, ctx) == direct_loop(label, ctx), format_label(label)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_level1_coords_are_the_level1_idempotent(p):
    # w_pi[m] = c_m (m!)**2 is the B_a coordinate vector of the level-1 idempotent
    ctx = AlgebraCtx(p, 1, 1)
    for pr in all_pairs(p):
        nu, x = weight_coords(level1_idempotent(pr, ctx))
        assert nu == pr.a
        assert idempotents._level1_coords(pr, p).tolist() == x.tolist()


def test_construction_forms_no_product(monkeypatch):
    # by the tensor lemma every idempotent is built from coordinates: from
    # cold caches, no HyperElem product, z_operator or fr_prime
    calls = {"mul": 0, "z_operator": 0, "fr_prime": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(HyperElem, "__mul__", counting("mul", HyperElem.__mul__))
    for name in ("z_operator", "fr_prime"):
        monkeypatch.setattr(idempotents, name, counting(name, getattr(idempotents, name)))
    tuple_idempotent.cache_clear()
    idempotents._level1_coords.cache_clear()
    for ctx in (AlgebraCtx(3, 3, 3), AlgebraCtx(2, 2, 4)):
        for label in enumerate_labels(ctx):
            assert not tuple_idempotent(label, ctx).is_zero()
    assert calls == {"mul": 0, "z_operator": 0, "fr_prime": 0}


@pytest.mark.parametrize(
    "p, r, rp", [(2, 1, 1), (2, 2, 3), (3, 2, 3), (5, 2, 2), (7, 1, 2), (3, 4, 4)], ids=str
)
def test_tuple_coords_are_the_coordinates_of_each_idempotent(p, r, rp):
    # one table for the whole family: row i is weight_coords of label i, and
    # tuple_idempotent is its one-item case
    ctx = AlgebraCtx(p, r, rp)
    labels = enumerate_labels(ctx)
    nus, xs = tuple_coords(labels, ctx)
    assert (nus.dtype, xs.dtype) == (np.int64, np.int16)
    assert nus.shape == (len(labels),) and xs.shape == (len(labels), ctx.xy_range)
    for label, nu, x in zip(labels, nus.tolist(), xs):
        e = tuple_idempotent(label, ctx)
        want_nu, want_x = weight_coords(e)
        assert nu == want_nu and x.tolist() == want_x.tolist(), format_label(label)
        assert e == from_weight_coords(ctx, nu, x)
    one_nus, one_xs = tuple_coords(iter(labels[-1:]), ctx)
    assert one_nus.tolist() == nus[-1:].tolist() and one_xs.tolist() == xs[-1:].tolist()


def test_tuple_coords_of_no_labels():
    ctx = AlgebraCtx(3, 2, 3)
    nus, xs = tuple_coords([], ctx)
    assert (nus.shape, xs.shape) == ((0,), (0, 9))
    assert (nus.dtype, xs.dtype) == (np.int64, np.int16)


@pytest.mark.parametrize(
    "ctx, label",
    [
        (AlgebraCtx(2, 2, 2), TupleLabel((make_pair(1, 0, 2),), None)),
        (AlgebraCtx(2, 2, 2), TupleLabel((make_pair(1, 0, 2),) * 3, None)),
        (AlgebraCtx(2, 2, 2), TupleLabel((make_pair(1, 0, 2),) * 2, 0)),
        (AlgebraCtx(3, 1, 2), TupleLabel((make_pair(1, 0, 3),), None)),
        (AlgebraCtx(3, 1, 2), TupleLabel((make_pair(1, 0, 3),), 3)),
        (AlgebraCtx(3, 1, 2), TupleLabel((make_pair(2, 0, 3),), -1)),
    ],
    ids=["too-few-pairs", "too-many-pairs", "aprime-without-room", "no-aprime", "aprime-too-large", "aprime-negative"],
)
def test_tuple_coords_reject_what_tuple_idempotent_rejects(ctx, label):
    # the same ValueError, with the same message, also after valid labels
    with pytest.raises(ValueError) as one:
        tuple_idempotent(label, ctx)
    good = enumerate_labels(ctx)[:2]
    with pytest.raises(ValueError) as bulk:
        tuple_coords([*good, label, *good], ctx)
    assert str(bulk.value) == str(one.value)


def test_tuple_validation():
    ctx = AlgebraCtx(2, 2, 2)
    pr = make_pair(1, 0, 2)
    with pytest.raises(ValueError):
        tuple_idempotent(TupleLabel((pr,), None), ctx)
    with pytest.raises(ValueError):
        tuple_idempotent(TupleLabel((pr, pr), 0), ctx)  # aprime without torus room


def test_term_arrays_are_frozen():
    # the construction is cached, so a writable term array would let a caller
    # rewrite the cached idempotent
    ctx = AlgebraCtx(2, 1, 1)
    label = enumerate_labels(ctx)[0]
    e = tuple_idempotent(label, ctx)
    key, vec = next(iter(e.terms.items()))
    before = vec.tolist()
    with pytest.raises(ValueError):
        vec[0] = 1 - vec[0]
    assert tuple_idempotent(label, ctx).terms[key].tolist() == before


def test_term_arrays_cannot_be_made_writeable():
    # each element's rows share one read-only buffer: neither a row nor the
    # block behind it can be switched back to writeable
    ctx = AlgebraCtx(3, 2, 2)
    label = enumerate_labels(ctx)[4]
    e = tuple_idempotent(label, ctx)
    for u in (e, one(ctx), e * gen_x(1, ctx)):
        for vec in u.terms.values():
            assert vec.base is u._block
            for arr in (vec, vec.base):
                with pytest.raises(ValueError):
                    arr.setflags(write=True)
    assert e * e == e
    assert tuple_idempotent(label, ctx) * e == e


def test_idempotent_blocks_are_int16():
    # 28,561 rows of q = 81 entries at (3,4,4), two bytes each: int64 blocks
    # would take four times as much
    ctx = AlgebraCtx(3, 4, 4)
    es = [tuple_idempotent(lb, ctx) for lb in enumerate_labels(ctx)]
    assert sum(len(e.terms) for e in es) == 28_561
    assert sum(e._block.nbytes for e in es) == 28_561 * 81 * 2


def test_terms_mapping_is_read_only():
    # nor can a caller add, replace or delete a term of a cached idempotent
    ctx = AlgebraCtx(2, 1, 1)
    label = enumerate_labels(ctx)[0]
    e = tuple_idempotent(label, ctx)
    before = {k: v.tolist() for k, v in e.terms.items()}
    key, vec = next(iter(e.terms.items()))
    with pytest.raises(TypeError):
        e.terms[key] = vec * 0
    with pytest.raises(TypeError):
        e.terms[(1, 1)] = vec
    with pytest.raises(TypeError):
        del e.terms[key]
    after = tuple_idempotent(label, ctx).terms
    assert {k: v.tolist() for k, v in after.items()} == before


def test_attributes_cannot_be_rebound():
    # rebinding ctx, terms, the keys or the block of a cached idempotent
    # would change the cache entry, or leave the keys naming other rows
    ctx = AlgebraCtx(3, 1, 2)
    label = enumerate_labels(ctx)[0]
    e = tuple_idempotent(label, ctx)
    before = {k: v.tolist() for k, v in e.terms.items()}
    assert e * e == e
    for name, value in [
        ("ctx", AlgebraCtx(3, 2, 2)),
        ("terms", dict(gen_x(1, ctx).terms)),
        ("_keys", gen_x(1, ctx)._keys),
        ("_block", gen_x(1, ctx)._block),
    ]:
        with pytest.raises(AttributeError):
            setattr(e, name, value)
        with pytest.raises(AttributeError):
            delattr(e, name)
    with pytest.raises(AttributeError):
        e.extra = 1
    again = tuple_idempotent(label, ctx)
    assert again.ctx == ctx
    assert {k: v.tolist() for k, v in again.terms.items()} == before


def test_primitivity_count_certificate():
    # as many idempotents as summands in any full decomposition: the sum of
    # the simple-module dimensions, computed digitwise
    from sl2hyper.modp import digits_base_p

    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]:
        ctx = AlgebraCtx(p, r, r)
        total = 0
        for lam in range(p**r):
            d = 1
            for digit in digits_base_p(lam, p, r):
                d *= digit + 1
            total += d
        assert len(enumerate_labels(ctx)) == total == (p * (p + 1) // 2) ** r


def test_enumerate_counts():
    assert len(enumerate_labels(AlgebraCtx(3, 1, 1))) == 6
    assert len(enumerate_labels(AlgebraCtx(2, 2, 2))) == 9
    assert len(enumerate_labels(AlgebraCtx(5, 2, 3))) == 225 * 5
    labels = enumerate_labels(AlgebraCtx(2, 1, 2))
    assert [format_label(lb) for lb in labels] == [
        "0:1;0",
        "0:1;1",
        "1:0;0",
        "1:0;1",
        "1:2;0",
        "1:2;1",
    ]


def test_label_parse_and_format():
    ctx = AlgebraCtx(3, 2, 3)
    label = parse_label("1:0,0:2;2", ctx)
    assert format_label(label) == "1:0,0:2;2"
    assert label.pairs[0].a == 1 and label.pairs[1].two_j == 2 and label.aprime == 2
    for lb in enumerate_labels(ctx)[:12]:
        assert parse_label(format_label(lb), ctx) == lb


def test_label_errors():
    ctx = AlgebraCtx(3, 1, 1)
    with pytest.raises(LabelError, match="context needs 1"):
        parse_label("1:0,0:0", ctx)
    with pytest.raises(LabelError, match="malformed pair"):
        parse_label("10", ctx)
    with pytest.raises(LabelError, match="invalid pair '9:0'"):
        parse_label("9:0", AlgebraCtx(5, 1, 1))
    with pytest.raises(LabelError, match="aprime"):
        parse_label("1:0;1", ctx)
    with pytest.raises(LabelError, match="aprime"):
        parse_label("1:0", AlgebraCtx(3, 1, 2))
    with pytest.raises(LabelError, match="out of range"):
        parse_label("1:0;3", AlgebraCtx(3, 1, 2))
    # each field is an ASCII decimal numeral without sign, space, underscore
    # or leading zero; int() alone accepted all of these
    ctx = AlgebraCtx(3, 2, 3)
    for text, match in [
        ("0:0,0:0;-0", "aprime"),
        ("0:0,0:0; 1", "aprime"),
        ("0:0,0:0;0_1", "aprime"),
        ("0:0,0:0;+1", "aprime"),
        ("0:0,0:0;01", "aprime"),
        ("0:0,0:0;1\n", "aprime"),
        ("\u0661:0,0:0;0", "malformed pair"),
        ("0:0 ,0:0;0", "malformed pair"),
        ("0:00,0:0;0", "malformed pair"),
        ("0:0,0: 0;0", "malformed pair"),
        ("0:0,0:-0;0", "malformed pair"),
        ("0:0,0:;0", "malformed pair"),
        # past int()'s digit limit (Pythons without one reject it as invalid)
        ("9" * 5000 + ":0,0:0;0", "pair '9"),
    ]:
        with pytest.raises(LabelError, match=match):
            parse_label(text, ctx)


def label_text(ctx):
    # a, t and aprime drawn mostly from small numerals, and sometimes from
    # text with signs, spaces, underscores, leading zeros and a non-ASCII digit
    field = st.one_of(st.sampled_from("0123"), st.text("0123 _-+\u0661", max_size=3))
    pair = st.tuples(field, field).map(":".join)
    text = st.lists(pair, min_size=ctx.r, max_size=ctx.r).map(",".join)
    if ctx.rprime > ctx.r:
        text = st.tuples(text, field).map(";".join)
    return text


LABEL_CTXS = [AlgebraCtx(3, 1, 1), AlgebraCtx(3, 2, 3), AlgebraCtx(2, 1, 2), AlgebraCtx(5, 1, 1)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.sampled_from(LABEL_CTXS).flatmap(lambda ctx: st.tuples(st.just(ctx), label_text(ctx))))
def test_parsed_labels_print_back_as_written(case):
    ctx, text = case
    try:
        label = parse_label(text, ctx)
    except LabelError:
        return
    assert format_label(label) == text
