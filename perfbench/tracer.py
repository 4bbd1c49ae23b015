"""Per-layer span tracer for the sl2hyper CLI, installed from outside the package.

`install()` wraps the public functions of every package module, and the
arithmetic methods of `HyperElem` and `Poly`, in a recorder that keeps one
span (group, start, end, parent) per call in memory.  A public name is
re-bound in every package module that holds it, because the consumers
(`verify`, `pims`, `idempotents`, `cli`) import with `from .x import ...` and
would otherwise keep calling the unwrapped function.  `dump()` writes the
spans out once the command has finished; `aggregate()` turns them into the
per-layer metrics, where a span's self time is its duration minus the time
covered by its child spans.

Nothing here changes what the wrapped functions compute or return.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

MODULES = ("modp", "fpoly", "algebra", "idempotents", "pims", "verify", "cli")

# Span group of a traced public name; names not listed take their module's default.
GROUP_OF = {
    "modp.binom_mod_p": "modp.binom_mod_p",
    "algebra.weightfn_to_coeffs": "algebra.weightfn_to_coeffs",
    "algebra.coeffs_to_weightfn": "algebra.coeffs_to_weightfn",
    "algebra.fr": "algebra.frobenius",
    "algebra.fr_prime": "algebra.frobenius",
    "algebra.embed": "algebra.frobenius",
    "algebra.element_to_json": "algebra.serialize",
    "algebra.element_from_json": "algebra.serialize",
    "algebra.format_element": "algebra.serialize",
    "idempotents.tuple_idempotent": "idempotents.tuple_idempotent",
    "idempotents.z_operator": "idempotents.z_operator",
    "pims.left_ideal_span": "pims.left_ideal_span",
    "pims.top_x_exponent": "pims.top_x_exponent",
    "pims.weight_of_idempotent": "pims.weight_of_idempotent",
    "pims.weyl_action": "pims.weyl_action",
}
DEFAULT_GROUP = {
    "modp": "modp.other",
    "fpoly": "fpoly",
    "algebra": "algebra.other",
    "idempotents": "idempotents.other",
    "pims": "pims.other",
    "verify": "verify",
    "cli": "cli",
}
# Element x element products; scalar products count as linear work.
MUL, SCALE, LINEAR = "algebra.mul", "algebra.scale", "algebra.linear"
HYPER_LINEAR = ("__add__", "__sub__", "__neg__")
POLY_METHODS = (
    "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__divmod__",
    "__floordiv__", "__mod__", "__call__", "shifted_arg",
)
TRACED_FUNCTIONS = {"cli": ("main",), "verify": ("run_suite",)}

# Self-time metric of each span group.  Every group maps to exactly one
# metric, so these metrics plus other.self_s add up to the traced wall time.
SELF_METRIC = {
    "modp.binom_mod_p": "modp.binom_mod_p.self_s",
    "modp.other": "modp.other.self_s",
    "fpoly": "fpoly.self_s",
    MUL: "algebra.mul.self_s",
    SCALE: "algebra.linear.self_s",
    LINEAR: "algebra.linear.self_s",
    "algebra.weightfn_to_coeffs": "algebra.weightfn_to_coeffs.self_s",
    "algebra.coeffs_to_weightfn": "algebra.coeffs_to_weightfn.self_s",
    "algebra.frobenius": "algebra.frobenius.self_s",
    "algebra.serialize": "algebra.serialize.self_s",
    "algebra.other": "algebra.other.self_s",
    "idempotents.tuple_idempotent": "idempotents.self_s",
    "idempotents.z_operator": "idempotents.self_s",
    "idempotents.other": "idempotents.self_s",
    "pims.left_ideal_span": "pims.left_ideal_span.self_s",
    "pims.top_x_exponent": "pims.top_x_exponent.self_s",
    "pims.weight_of_idempotent": "pims.weight_of_idempotent.self_s",
    "pims.weyl_action": "pims.weyl_action.self_s",
    "pims.other": "pims.other.self_s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}
CALL_METRIC = {
    "modp.binom_mod_p": "modp.binom_mod_p.calls",
    "fpoly": "fpoly.calls",
    MUL: "algebra.mul.calls",
    SCALE: "algebra.linear.calls",
    LINEAR: "algebra.linear.calls",
    "algebra.weightfn_to_coeffs": "algebra.weightfn_to_coeffs.calls",
    "algebra.coeffs_to_weightfn": "algebra.coeffs_to_weightfn.calls",
    "algebra.frobenius": "algebra.frobenius.calls",
    "idempotents.tuple_idempotent": "idempotents.tuple_idempotent.calls",
    "idempotents.z_operator": "idempotents.z_operator.calls",
    "pims.left_ideal_span": "pims.left_ideal_span.calls",
    "pims.top_x_exponent": "pims.top_x_exponent.calls",
    "pims.weight_of_idempotent": "pims.weight_of_idempotent.calls",
    "pims.weyl_action": "pims.weyl_action.calls",
}
GROUPS = tuple(SELF_METRIC)
GROUP_ID = {g: i for i, g in enumerate(GROUPS)}


class Recorder:
    """In-memory spans plus the counters the wrappers update."""

    def __init__(self):
        self.group: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack = [-1]
        self.counts = {
            "algebra.mul.term_pairs": 0,
            "algebra.mul.zero_products": 0,
            "pims.left_ideal_span.dim_sum": 0,
            "verify.checks": 0,
            "verify.checks_failed": 0,
        }
        self.cache_info = None

    def wrap(self, fn, group: str, after=None):
        gid = GROUP_ID[group]
        group_l, parent_l, start_l, end_l, stack = self.group, self.parent, self.start, self.end, self.stack
        now = time.monotonic_ns

        def traced(*args, **kwargs):
            i = len(start_l)
            group_l.append(gid)
            parent_l.append(stack[-1])
            end_l.append(0)
            stack.append(i)
            start_l.append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_l[i] = now()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return functools.update_wrapper(traced, fn)

    def wrap_mul(self, mul, elem_type):
        """HyperElem.__mul__ under two groups: element products and scalings."""
        counts = self.counts
        product = self.wrap(mul, MUL, after=self.count_zero)
        scale = self.wrap(mul, SCALE)

        def traced_mul(a, b):
            if isinstance(b, elem_type):
                counts["algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)
                return product(a, b)
            return scale(a, b)

        return functools.update_wrapper(traced_mul, mul)

    def count_zero(self, product) -> None:
        if not product.terms:
            self.counts["algebra.mul.zero_products"] += 1

    def count_ideal(self, basis) -> None:
        self.counts["pims.left_ideal_span.dim_sum"] += basis.dim

    def count_checks(self, results) -> None:
        self.counts["verify.checks"] += len(results)
        self.counts["verify.checks_failed"] += sum(1 for c in results if not c.passed)

    def dump(self, path: str, t_main_end: int) -> None:
        meta = {"groups": list(GROUPS), "t_main_end": t_main_end, "counts": self.counts}
        if self.cache_info is not None:
            meta["tuple_idempotent_cache"] = list(self.cache_info())[:2]
        with open(path, "wb") as fh:
            np.savez(
                fh,
                group=np.asarray(self.group, dtype=np.int32),
                parent=np.asarray(self.parent, dtype=np.int64),
                start=np.asarray(self.start, dtype=np.int64),
                end=np.asarray(self.end, dtype=np.int64),
                meta=np.asarray(json.dumps(meta)),
            )


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapped)


def install() -> Recorder:
    """Wrap the package's public functions and arithmetic; return the recorder."""
    rec = Recorder()
    mods = {m: importlib.import_module(f"sl2hyper.{m}") for m in MODULES}
    everywhere = [importlib.import_module("sl2hyper"), *mods.values()]
    after = {"pims.left_ideal_span": rec.count_ideal, "verify.run_suite": rec.count_checks}
    for m, mod in mods.items():
        names = TRACED_FUNCTIONS.get(m) or mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if isinstance(fn, type) or not callable(fn):
                continue
            key = f"{m}.{name}"
            wrapped = rec.wrap(fn, GROUP_OF.get(key, DEFAULT_GROUP[m]), after.get(key))
            if key == "idempotents.tuple_idempotent":
                rec.cache_info = fn.cache_info
            _rebind(everywhere, fn, wrapped)
    elem = mods["algebra"].HyperElem
    elem.__mul__ = rec.wrap_mul(elem.__mul__, elem)
    for name in HYPER_LINEAR:
        setattr(elem, name, rec.wrap(getattr(elem, name), LINEAR))
    poly = mods["fpoly"].Poly
    for name in POLY_METHODS:
        setattr(poly, name, rec.wrap(getattr(poly, name), "fpoly"))
    return rec


def aggregate(path: str, t_spawn: int) -> dict:
    """Per-layer metrics from a dump; times are from the span clock, in seconds.

    `traced_wall_s` runs from the spawn of the traced process to the end of
    `main`; `other.self_s` is the part of it under no span (interpreter start,
    imports, installing the tracer).
    """
    with np.load(path, allow_pickle=False) as z:
        group, parent, start, end = z["group"], z["parent"], z["start"], z["end"]
        meta = json.loads(str(z["meta"]))
    if meta["groups"] != list(GROUPS):
        raise ValueError("span dump was written with a different group table")
    dur = (end - start).astype(np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    self_ns = np.bincount(group, weights=dur - covered, minlength=len(GROUPS))
    calls = np.bincount(group, minlength=len(GROUPS))
    out: dict[str, float] = {}
    for g, metric in SELF_METRIC.items():
        out[metric] = out.get(metric, 0.0) + self_ns[GROUP_ID[g]] / 1e9
    for g, metric in CALL_METRIC.items():
        out[metric] = out.get(metric, 0) + int(calls[GROUP_ID[g]])
    wall_ns = meta["t_main_end"] - t_spawn
    out["traced_wall_s"] = wall_ns / 1e9
    out["other.self_s"] = (wall_ns - dur[~child].sum()) / 1e9
    for metric in ("other.self_s", *SELF_METRIC.values()):
        out[metric.replace(".self_s", ".self_frac")] = out[metric] / out["traced_wall_s"]
    counts = meta["counts"]
    n_mul = out["algebra.mul.calls"]
    out["algebra.mul.term_pairs"] = counts["algebra.mul.term_pairs"]
    out["algebra.mul.zero_frac"] = counts["algebra.mul.zero_products"] / n_mul if n_mul else 0.0
    pairs = counts["algebra.mul.term_pairs"]
    out["algebra.mul.ns_per_term_pair"] = out["algebra.mul.self_s"] * 1e9 / pairs if pairs else 0.0
    out["pims.left_ideal_span.dim_sum"] = counts["pims.left_ideal_span.dim_sum"]
    out["verify.checks"] = counts["verify.checks"]
    out["verify.checks_failed"] = counts["verify.checks_failed"]
    hits, misses = meta.get("tuple_idempotent_cache", (0, 0))
    out["idempotents.tuple_idempotent.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    out["spans"] = len(dur)
    out["calls_by_group"] = {g: int(calls[GROUP_ID[g]]) for g in GROUPS}
    return out
