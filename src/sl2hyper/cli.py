"""Command-line front end.

Subcommands: `idempotents` (emit every labeled idempotent), `verify` (run a
check suite), `pim-table` (per-label projective-cover verification rows),
`show` (print one idempotent).  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Output is deterministic for a fixed configuration
including the seed.

JSON output is the compact sorted `json.dumps(payload, sort_keys=True,
separators=(",", ":"))` plus a newline.  `idempotents` and `show` write
that text byte for byte through `_entry_json`, one entry at a time, without
building the payload or the element: coordinates first.  By the
weight-space lemma (`algebra.weight_coords`) a weight-nu idempotent is
sum_m x_m beta_m, so its term Y^(m) X^(m) has the torus factor whose one
nonzero entry is x_m, at the weight (nu + 2m) mod q; the label's (nu, x)
from `idempotents.tuple_coords` therefore fixes every byte of its entry.
Each distinct `h_eval` list is encoded once per command, in a memo keyed
by (weight, value): at most (p - 1) * q occur (162 of the 28,561 terms at
(3,4,4)).  In text, `idempotents` and `show` build each element from its
coordinates as it is written and drop it, and `idempotents` shares one
memo by row content across all its `format_element` calls.

`idempotents` streams its output: `_emit` takes an iterable of string
pieces and writes them in order, and the command yields the JSON header,
then one entry at a time, then the trailer (in text, one label block at a
time), so the whole output is never held as one string.  Every label's
coordinates are computed, in one `tuple_coords` call, before the first
piece is written, so a command that fails while computing them leaves an
`--out` file untouched.  `verify`, `pim-table` and `show` pass one string.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from .algebra import AlgebraCtx, format_element, from_weight_coords
from .idempotents import (
    LabelError,
    enumerate_labels,
    format_label,
    parse_label,
    tuple_coords,
)
from .pims import pim_rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2hyper",
        description="Primitive idempotent decompositions of SL(2) Frobenius-kernel "
        "hyperalgebras over F_p, with projective-cover identification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--p", type=int, required=True, help="the prime characteristic")
        sp.add_argument("--r", type=int, default=1, help="divided-power depth (default 1)")
        sp.add_argument("--rprime", type=int, default=None, help="torus depth (default r)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")
        sp.add_argument("--seed", type=int, default=None, help="seed for randomized checks")

    sp = sub.add_parser("idempotents", help="emit every labeled idempotent")
    common(sp)
    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", choices=("basic", "full"), default="basic")
    sp = sub.add_parser("pim-table", help="emit the projective-cover table")
    common(sp)
    sp = sub.add_parser("show", help="print one idempotent by label")
    common(sp)
    sp.add_argument("--label", required=True, help="label string a:t[,a:t]*[;aprime] with t = 2j")
    return ap


def _context(args: argparse.Namespace) -> AlgebraCtx:
    rprime = args.r if args.rprime is None else args.rprime
    try:
        return AlgebraCtx(args.p, args.r, rprime)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_out(out: str | None) -> None:
    # fail before any work when --out can never be written; the path is only
    # inspected, so an existing file is not truncated by a failing command
    if out is None:
        return
    parent = os.path.dirname(os.path.abspath(out))
    if not out:
        code = errno.ENOENT  # as open("") fails; abspath("") would be the cwd
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write {out}: {os.strerror(code)}")


def _emit(pieces, out: str | None) -> None:
    """Write `pieces`, one string or an iterable of strings, in order to
    stdout or to the file `out`; a write error anywhere is a UsageError."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    if out is None:
        try:
            for piece in pieces:
                sys.stdout.write(piece)
            sys.stdout.flush()
        except OSError as exc:
            # a usage error (exit 2), not a failed check; the failed bytes stay
            # buffered for the flush at exit, which fd 1 on os.devnull lets pass
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            raise UsageError(f"cannot write standard output: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _entry_json(name: str, ctx: AlgebraCtx, nu: int, x, rows: dict) -> str:
    """`_json_dumps({"element": element_to_json(e), "label": name})`, less
    its newline, for e = from_weight_coords(ctx, nu, x), written from (nu, x)
    without building e; x has entries in 0..p-1, as `tuple_coords` gives.
    The term Y^(m) X^(m) of e has the torus factor whose one nonzero entry
    is x[m], at the weight (nu + 2m) mod q (weight-space lemma); `rows` maps
    each (weight, value) to the text `{"h_eval":[...],"xexp":`, formed once."""
    q = ctx.q
    ms = x.nonzero()[0]
    terms = []
    for m, w, value in zip(ms.tolist(), ((nu + 2 * ms) % q).tolist(), x[ms].tolist()):
        head = rows.get((w, value))
        if head is None:
            head = rows[w, value] = f'{{"h_eval":[{"0," * w}{value}{",0" * (q - 1 - w)}],"xexp":'
        terms.append(f'{head}{m},"yexp":{m}}}')
    return (
        f'{{"element":{{"p":{ctx.p},"r":{ctx.r},"rprime":{ctx.rprime},'
        f'"terms":[{",".join(terms)}]}},"label":{json.dumps(name)}}}'
    )


def _idempotents_json(ctx: AlgebraCtx, labels: list, nus, xs):
    rows: dict = {}
    yield f'{{"count":{len(labels)},"idempotents":['
    for i, (label, nu, x) in enumerate(zip(labels, nus.tolist(), xs)):
        yield ("," if i else "") + _entry_json(format_label(label), ctx, nu, x, rows)
    yield f'],"p":{ctx.p},"r":{ctx.r},"rprime":{ctx.rprime}}}\n'


def _idempotents_text(ctx: AlgebraCtx, labels: list, nus, xs):
    # one element at a time: each is built as its block is written, then dropped
    memo: dict = {}
    for label, nu, x in zip(labels, nus.tolist(), xs):
        lines = format_element(from_weight_coords(ctx, nu, x), memo).splitlines()
        yield f"label {format_label(label)}:\n" + "".join(f"  {ln}\n" for ln in lines)
    yield f"count: {len(labels)}\n"


def _cmd_idempotents(args: argparse.Namespace) -> int:
    ctx = _context(args)
    labels = enumerate_labels(ctx)
    nus, xs = tuple_coords(labels, ctx)
    write = _idempotents_json if args.format == "json" else _idempotents_text
    _emit(write(ctx, labels, nus, xs), args.out)
    if args.out is not None:
        _emit(f"{len(labels)} idempotents written to {args.out}\n", None)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here, so that the commands that run no suite neither compile
    # nor hold `verify`
    from .verify import DEFAULT_SEED, run_suite

    seed = DEFAULT_SEED if args.seed is None else args.seed
    ctx = _context(args)
    if args.suite == "full":
        # the full suite's Frobenius checks work one level up, at rprime + 1
        try:
            AlgebraCtx(ctx.p, ctx.r + 1, ctx.rprime + 1)
        except ValueError as exc:
            raise UsageError(f"the full suite needs rprime + 1: {exc}") from None
    results = run_suite(ctx, args.suite, seed)
    failed = [c for c in results if not c.passed]
    if args.format == "json":
        payload = {
            "p": ctx.p,
            "r": ctx.r,
            "rprime": ctx.rprime,
            "suite": args.suite,
            "seed": seed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in results
            ],
            "passed": not failed,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}" + (f" ({c.detail})" if c.detail else "")
            for c in results
        ]
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} checks passed "
            f"[p={ctx.p} r={ctx.r} rprime={ctx.rprime} suite={args.suite} seed={seed}]"
        )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_FAIL if failed else EXIT_OK


_TABLE_COLS = (
    "label",
    "weight",
    "top_x",
    "lambda_prime",
    "lambda_double_prime",
    "predicted_dim",
    "computed_dim",
    "status",
)


def _cmd_pim_table(args: argparse.Namespace) -> int:
    ctx = _context(args)
    rows = pim_rows(ctx)
    census = sum(row["computed_dim"] for row in rows)
    if args.format == "json":
        payload = {
            "p": ctx.p,
            "r": ctx.r,
            "rprime": ctx.rprime,
            "census": census,
            "rows": rows,
        }
        _emit(_json_dumps(payload), args.out)
    else:
        lines = ["\t".join(_TABLE_COLS)]
        lines.extend("\t".join(str(row[c]) for c in _TABLE_COLS) for row in rows)
        lines.append(f"census: {census} (ambient dimension {ctx.xy_range ** 2 * ctx.q})")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(row["status"] == "PASS" for row in rows) else EXIT_FAIL


def _cmd_show(args: argparse.Namespace) -> int:
    ctx = _context(args)
    label = parse_label(args.label, ctx)
    nus, xs = tuple_coords([label], ctx)
    nu, x, name = int(nus[0]), xs[0], format_label(label)
    if args.format == "json":
        _emit(_entry_json(name, ctx, nu, x, {}) + "\n", args.out)
    else:
        _emit(f"label {name}:\n" + format_element(from_weight_coords(ctx, nu, x)) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "idempotents": _cmd_idempotents,
    "verify": _cmd_verify,
    "pim-table": _cmd_pim_table,
    "show": _cmd_show,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return _COMMANDS[args.command](args)
    except (UsageError, LabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
