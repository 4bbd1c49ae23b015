"""`run_suite`'s table, and a failing run of every check of the full suite.

Each check test breaks one ingredient through `verify`'s namespace and reads
the check's (failures, detail) directly; the round-trip tests also run the
loop over every basis element, the oracle of the digit-probe lemma.  The
wiring test replaces every check by a recording stub and reads the table's
names, order, skips and arguments on both sides of each skip rule.
"""

import dataclasses
import random

import numpy as np
import pytest

from sl2hyper import verify
from sl2hyper.algebra import AlgebraCtx, HyperElem, fr_prime, one, pbw_elem, zero
from sl2hyper.fpoly import Poly
from sl2hyper.idempotents import all_pairs, enumerate_labels, format_label, parse_label, weight_projector
from sl2hyper.verify import CheckResult

CTX = AlgebraCtx(3, 2, 2)
PAIR = all_pairs(3)[1]  # (0, 2)


def rng():
    return random.Random(1)


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite(CTX, "nope")


def test_selector_partition_fails_on_a_doubled_selector(monkeypatch):
    # 2 s_0 breaks the sum, and (2 s_0)^2 = 4 s_0 = s_0 != 2 s_0 mod the
    # vanishing polynomial; the mixed products stay 0
    real = verify.selector_poly
    monkeypatch.setattr(verify, "selector_poly", lambda j, p: real(j, p) * (2 if j == 0 else 1))
    assert verify._check_selector_partition(3) == (
        ["selectors do not sum to 1", "selector product (0,0) wrong mod vanishing poly"],
        "",
    )


def test_squares_shift_fails_at_the_shifted_step_product(monkeypatch):
    real = verify.yx_power_poly
    monkeypatch.setattr(verify, "yx_power_poly", lambda a, n, p: real(a, n, p) + Poly.one(p) * (a == 1))
    assert verify._check_squares_shift(3) == (["a=1"], "")


def test_min_power_forms_fail_on_a_wrong_division(monkeypatch):
    real = verify.min_power_by_division
    monkeypatch.setattr(
        verify, "min_power_by_division", lambda a, j, p: real(a, j, p) + ((a, 2 * j) == (PAIR.a, PAIR.two_j))
    )
    closed = verify.min_yx_power(PAIR, 3)
    assert verify._check_min_power_forms(3) == ([f"(0,2): division {closed + 1} != closed {closed}"], "")


def test_expansion_double_path_fails_on_a_wrong_xy_table(monkeypatch):
    real = verify.xy_coeff_table
    monkeypatch.setattr(
        verify, "xy_coeff_table", lambda pr, p: tuple((c + (pr == PAIR)) % p for c in real(pr, p))
    )
    assert verify._check_expansion_double_path(3) == (["(0,2) xy coefficients disagree"], "")


def test_yx_product_identity_fails_on_a_scaled_x_power(monkeypatch):
    # 2 X^(2) doubles the left side mu_a Y^(2) X^(2) wherever it is nonzero
    ctx = AlgebraCtx(3, 1, 1)
    real = verify.x_power
    y2x2 = verify.y_power(2, ctx) * real(2, ctx)
    nonzero = [a for a in range(3) if not (weight_projector(a, 1, ctx) * y2x2).is_zero()]
    assert nonzero
    monkeypatch.setattr(verify, "x_power", lambda m, c: 2 * real(m, c) if m == 2 else real(m, c))
    assert verify._check_yx_product_identity(3) == ([f"a={a}, m=2" for a in nonzero], "")


def test_commuting_family_fails_when_a_torus_binomial_is_x(monkeypatch):
    # X shifts weights, so it commutes with neither Y^(p^s) X^(p^s)
    real = verify.gen_h_binom
    monkeypatch.setattr(verify, "gen_h_binom", lambda n, c: verify.gen_x(1, c) if n == 1 else real(n, c))
    assert verify._check_commuting_family(CTX) == (
        ["YX power 0 vs torus binomial 1", "YX power 1 vs torus binomial 1"],
        "",
    )


def test_p_divided_center_fails_when_x_p_is_x(monkeypatch):
    # X^(1) commutes with the unit C(H, 0) alone among C(H, k), k < p, and YX
    real = verify.gen_x
    monkeypatch.setattr(verify, "gen_x", lambda n, c: real(1, c) if n == 3 else real(n, c))
    assert verify._check_p_divided_center(CTX) == (["exponent 3"] * 3, "")


def test_window_identities_fail_on_a_scaled_exponent_raise(monkeypatch):
    # 2 fr' makes the left side 4 mu fr'(z1) fr'(z2) X^(b) and the right 2 mu fr'(z1 z2) X^(b)
    real = verify.fr_prime
    monkeypatch.setattr(verify, "fr_prime", lambda z: 2 * real(z))
    failures, detail = verify._check_window_identities(CTX, rng())
    assert failures and detail == ""
    assert all(f.startswith("product collapse fails at a=") for f in failures)


def test_lifting_laws_fail_on_a_scaled_embedding(monkeypatch):
    # 2 e: the unit image of every pair is off, and 2 e zz != zz for zz != 0
    real = verify.embed
    monkeypatch.setattr(verify, "embed", lambda e, tgt: 2 * real(e, tgt))
    failures, detail = verify._check_z_operator_laws(CTX, rng())
    units = [f for f in failures if f.startswith("unit image off")]
    assert units == [f"unit image off for ({pr.a},{pr.two_j})" for pr in all_pairs(3)] and detail == ""
    assert {f.split(" for ")[0] for f in failures} == {"unit image off", "corner containment fails"}


def test_telescoping_fails_on_a_missing_inner_idempotent(monkeypatch):
    # the row of one label is zeroed, so its idempotent is missing from the sum
    real = verify.tuple_coords
    gone = enumerate_labels(CTX)[4]

    def without_gone(labels, c):
        labels = list(labels)
        nus, xs = real(labels, c)
        xs[labels.index(gone)] = 0
        return nus, xs

    monkeypatch.setattr(verify, "tuple_coords", without_gone)
    pr0 = gone.pairs[0]
    assert verify._check_telescoping(CTX) == (
        [f"inner sum misses the level-1 idempotent of ({pr0.a},{pr0.two_j})"],
        "",
    )


def exhaustive_roundtrip_failures(ctx):
    """fr(fr'(u)) = u on every basis element, through `verify`'s namespace:
    the oracle of the digit-probe lemma (the `verify` module docstring)."""
    bad = []
    for m in range(ctx.xy_range):
        for mp_ in range(ctx.xy_range):
            for n in range(ctx.q):
                u = pbw_elem(m, n, mp_, ctx)
                if verify.fr(verify.fr_prime(u)) != u:
                    bad.append(f"basis ({m},{n},{mp_})")
    return bad


def test_frobenius_roundtrip_fails_on_one_basis_element(monkeypatch):
    # zeroing fr on one element depends on its values, which the digit-probe
    # lemma's premise excludes: the probes cannot see it, and the oracle does
    real = verify.fr
    lifted = fr_prime(pbw_elem(1, 2, 0, CTX))
    monkeypatch.setattr(verify, "fr", lambda u: zero(CTX) if u == lifted else real(u))
    assert exhaustive_roundtrip_failures(CTX) == ["basis (1,2,0)"]
    assert verify._check_frobenius_roundtrip(CTX) == ([], "729 basis elements")


@pytest.mark.parametrize("p, r, rprime", [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 1, 2), (3, 2, 2), (5, 1, 1)])
def test_digit_probes_agree_with_the_exhaustive_oracle(p, r, rprime):
    ctx = AlgebraCtx(p, r, rprime)
    assert exhaustive_roundtrip_failures(ctx) == []
    assert verify._check_frobenius_roundtrip(ctx) == ([], f"{p ** (2 * r + rprime)} basis elements")


def _with_rows(v, rows):
    return HyperElem(v.ctx, {key: f[rows] for key, f in v.terms.items()})


def _swap_weight_digits(v):
    # w = d0 + p d1 + p^2 rest  ->  d1 + p d0 + p^2 rest
    p, w = v.ctx.p, np.arange(v.ctx.q)
    return _with_rows(v, w - w % p**2 + w % p * p + w // p % p)


# position mutations of fr at CTX = (3,2,2), with the probes that fail and
# the number of the 729 basis elements that fail; probes 0-1 are the weight
# digits, 2-3 the X-exponent (m') digits and 4-5 the Y-exponent (m) digits.
# The weight probes hold the same row at every key, so transposed keys pass
# them and fail on the key digits alone.
FR_MUTATIONS = {
    "transposed keys": (
        lambda v: HyperElem(v.ctx, {(mp_, m): f for (m, mp_), f in v.terms.items()}),
        [2, 3, 4, 5],
        648,
    ),
    "rows rotated by one weight": (lambda v: _with_rows(v, (np.arange(v.ctx.q) + 1) % v.ctx.q), [0, 1], 648),
    "weight digits swapped": (_swap_weight_digits, [0, 1], 486),
    "key dropped": (
        lambda v: HyperElem(v.ctx, {k: f for k, f in v.terms.items() if k != (0, 1)}),
        [0, 1, 2],
        9,
    ),
}
PROBE_NAMES = ["weight digit 0", "weight digit 1"] + [f"{s}-exponent digit {j}" for s in "XY" for j in (0, 1)]


@pytest.mark.parametrize("mutation", FR_MUTATIONS)
def test_frobenius_roundtrip_fails_on_a_moved_position(monkeypatch, mutation):
    mutate, probes, moved = FR_MUTATIONS[mutation]
    real = verify.fr
    monkeypatch.setattr(verify, "fr", lambda u: mutate(real(u)))
    want = [f"probe {k} ({PROBE_NAMES[k]})" for k in probes]
    assert verify._check_frobenius_roundtrip(CTX) == (want, "729 basis elements")
    assert len(exhaustive_roundtrip_failures(CTX)) == moved


def test_oracle_fails_on_a_wrong_weyl_action(monkeypatch):
    # 2I is not its own square mod 3, so every pair at highest weight 2 fails
    real = verify.weyl_action
    two = 2 * np.eye(3, dtype=np.int64)
    monkeypatch.setattr(verify, "weyl_action", lambda u, lam: two if lam == 2 else real(u, lam))
    assert verify._check_oracle(CTX, rng()) == (["highest weight 2"] * 3, "weights 0..16")


def test_product_independence_fails_on_a_collapsed_exponent_raise(monkeypatch):
    # with every raised factor 1 the products are the 27 depth-2 basis elements u
    monkeypatch.setattr(verify, "fr_prime", lambda z: one(CTX))
    assert verify._check_product_independence(3) == (["rank 27 != 729"], "729 products")


def test_top_x_fails_on_a_wrong_exponent(monkeypatch):
    real = verify.top_x_exponent
    lb = enumerate_labels(CTX)[5]
    e = verify.tuple_idempotent(lb, CTX)
    monkeypatch.setattr(verify, "top_x_exponent", lambda u: real(u) + (u == e))
    t = verify.predicted_top_x(lb, 3)
    assert verify._check_top_x(CTX) == ([f"{format_label(lb)}: {t + 1} != {t}"], "")


def test_pim_census_fails_on_a_short_row(monkeypatch):
    real = verify.pim_rows

    def short(ctx):
        rows = real(ctx)
        rows[3] = {**rows[3], "computed_dim": rows[3]["computed_dim"] - 1, "status": "FAIL"}
        return rows

    monkeypatch.setattr(verify, "pim_rows", short)
    label = format_label(enumerate_labels(CTX)[3])
    failures = [f"{label}: FAIL", "census 728 != 729"]
    assert verify._check_pim_census(CTX) == (failures, "census 728 = ambient dim")


def test_roundtrips_fail_on_a_lossy_json_reader(monkeypatch):
    monkeypatch.setattr(verify, "element_from_json", lambda data: zero(CTX))
    want = [f"json round trip fails for {format_label(lb)}" for lb in enumerate_labels(CTX)[:8]]
    assert verify._check_roundtrips(CTX, rng()) == (want, "")


def test_a_wrong_predicted_cover_fails_label_count_by_name(monkeypatch):
    # lambda' shifted for one label: the character that is 1 on its
    # idempotent names the true cover, so only label-count fails
    ctx = AlgebraCtx(3, 2, 3)
    target = "0:0,0:2;2"
    real = verify.pim_label_closed_form

    def shifted(lb, c):
        pl = real(lb, c)
        return dataclasses.replace(pl, lambda_prime=pl.lambda_prime + 1) if format_label(lb) == target else pl

    assert all(c.passed for c in verify.run_suite(ctx, "basic"))
    monkeypatch.setattr(verify, "pim_label_closed_form", shifted)
    pl = real(parse_label(target, ctx), ctx)
    mu = pl.lambda_prime + 9 * pl.lambda_double_prime
    res = verify.run_suite(ctx, "basic")
    assert [(c.name, c.detail) for c in res if not c.passed] == [
        ("label-count", f"{target}: cover P({mu}) != P({mu + 1})")
    ]


# (name, check, argument kinds, rule) in the table's order
FULL_TABLE = [
    ("selector-partition-of-unity", "_check_selector_partition", "p", "p=2"),
    ("squares-shift-identity", "_check_squares_shift", "p", "p=2"),
    ("min-power-closed-forms", "_check_min_power_forms", "p", "p=2"),
    ("yx-expansion-double-path", "_check_expansion_double_path", "p", None),
    ("yx-product-identity", "_check_yx_product_identity", "p", None),
    ("commuting-yx-family", "_check_commuting_family", "ctx", None),
    ("p-divided-powers-centralize", "_check_p_divided_center", "ctx", "r=1"),
    ("frobenius-window-identities", "_check_window_identities", "ctx, rng", "r=1"),
    ("lifting-operator-laws", "_check_z_operator_laws", "ctx, rng", "r=1"),
    ("partial-sum-telescoping", "_check_telescoping", "ctx", "r=1"),
    ("frobenius-splitting-roundtrip", "_check_frobenius_roundtrip", "ctx", None),
    ("associativity", "_check_associativity", "ctx, rng", None),
    ("multiplication-oracle", "_check_oracle", "ctx, rng", None),
    ("split-product-independence", "_check_product_independence", "p", "p>3"),
    ("top-x-exponent", "_check_top_x", "ctx", "p^r>32"),
    ("pim-census", "_check_pim_census", "ctx", "ambient>20000"),
    ("round-trips", "_check_roundtrips", "ctx, rng", None),
]
BASIC_TABLE = [
    ("weight-projectors", "_check_mu_projectors", "ctx", None),
    ("weight-projector-binomial-form", "_check_mu_binomial_form", "ctx", None),
]


def skip_reason(rule, ctx):
    ambient = ctx.xy_range**2 * ctx.q
    return {
        None: None,
        "p=2": "table case, skipped" if ctx.p == 2 else None,
        "r=1": "needs r >= 2, skipped" if ctx.r == 1 else None,
        "p>3": "skipped for p > 3 (size)" if ctx.p > 3 else None,
        "p^r>32": "skipped for p^r > 32 (size)" if ctx.xy_range > 32 else None,
        "ambient>20000": f"skipped for ambient dim {ambient} (size)" if ambient > 20000 else None,
    }[rule]


@pytest.mark.parametrize(
    "p, r, rprime, skipped",
    [
        (3, 2, 2, []),
        (2, 2, 2, ["p=2"]),
        (3, 1, 1, ["r=1"]),
        (5, 2, 2, ["p>3"]),
        (3, 3, 4, ["ambient>20000"]),  # ambient dim 59,049 at p^r = 27
        (7, 2, 2, ["p>3", "p^r>32", "ambient>20000"]),
    ],
)
def test_the_table_names_orders_and_skips_every_check(monkeypatch, p, r, rprime, skipped):
    # each stub passes with its own function name as the detail, so two rows
    # that swap functions change the output
    ctx = AlgebraCtx(p, r, rprime)
    calls = []

    def stub(fn):
        def record(*args):
            calls.append((fn, args))
            return [], fn

        return record

    for _, fn, _, _ in BASIC_TABLE + FULL_TABLE:
        monkeypatch.setattr(verify, fn, stub(fn))

    def certificate(c, labels, rows, degrees):
        calls.append(("_certificate", (c, len(labels), len(rows))))
        return [CheckResult("certificate", False, "stub")]

    monkeypatch.setattr(verify, "_certificate", certificate)
    n = len(enumerate_labels(ctx))
    for suite, table in [("basic", BASIC_TABLE), ("full", BASIC_TABLE + FULL_TABLE)]:
        calls.clear()
        res = verify.run_suite(ctx, suite, seed=7)
        rows = [(name, fn, kinds, skip_reason(rule, ctx)) for name, fn, kinds, rule in table]
        rules = {rule for *_, rule in table if skip_reason(rule, ctx)}
        assert sorted(rules) == sorted(skipped if suite == "full" else [])
        want = [(name, True, skip or fn) for name, fn, _, skip in rows]
        want.insert(2, ("certificate", False, "stub"))
        assert [(c.name, c.passed, c.detail) for c in res] == want
        # skipped stubs are not called; the rest run in table order with their arguments
        run = [(fn, kinds) for _, fn, kinds, skip in rows if not skip]
        run.insert(2, ("_certificate", None))
        assert [fn for fn, _ in calls] == [fn for fn, _ in run]
        rngs = []
        for (fn, args), (_, kinds) in zip(calls, run):
            if kinds is None:
                assert args == (ctx, n, n)
            elif kinds == "p":
                assert args == (p,)
            elif kinds == "ctx":
                assert args == (ctx,)
            else:
                assert args[0] == ctx and len(args) == 2
                rngs.append(args[1])
        # one Random for every rng-taking check, seeded and not drawn by run_suite
        assert all(g is rngs[0] for g in rngs)
        if rngs:
            assert rngs[0].getstate() == random.Random(7).getstate()
