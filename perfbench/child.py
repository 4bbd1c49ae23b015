"""One fresh sl2hyper CLI process, as the benchmark spawns it.

    python3 perfbench/child.py --ready-fd FD [--trace PATH | --profile PATH] -- CLI ARGS...
    python3 perfbench/child.py --ready-fd FD --setup-only
    python3 perfbench/child.py --props P R RPRIME

The package is imported from `src/` of the checkout this file sits in.  As
soon as `sl2hyper.cli` is imported, the CLOCK_MONOTONIC time in nanoseconds
is written to FD, so the parent can take set-up time from its own spawn
time.  Then `main` runs with the given arguments and its return value is the
exit code.  `--trace` installs the span tracer first and dumps the spans to
PATH when `main` returns; `--profile` runs `main` under cProfile instead and
writes the stats to PATH.  `--props` prints the workload property record of
a context as JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "sl2hyper", "cli.py")):
        sys.exit(f"error: no sl2hyper sources under {SRC}")
    sys.path.insert(0, SRC)
    import sl2hyper.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(sl2hyper.cli.__file__))) != SRC:
        sys.exit(f"error: sl2hyper was imported from {sl2hyper.cli.__file__}, not from {SRC}")
    return sl2hyper.cli


def _props(p: int, r: int, rprime: int) -> str:
    import json
    from collections import Counter

    import numpy as np
    from sl2hyper import AlgebraCtx, enumerate_labels, predicted_weight, tuple_idempotent

    ctx = AlgebraCtx(p, r, rprime)
    labels = enumerate_labels(ctx)
    n = len(labels)
    weights = Counter(predicted_weight(lb, ctx) for lb in labels)
    same = sum(c * (c - 1) for c in weights.values())
    terms = [len(tuple_idempotent(lb, ctx).terms) for lb in labels]
    return json.dumps({
        "labels": n,
        "ambient_dim": p ** (2 * r + rprime),
        "q": ctx.q,
        "same_weight_pair_frac": same / (n * (n - 1)) if n > 1 else 0.0,
        "terms_mean": sum(terms) / n,
        "terms_max": max(terms),
        "numpy": np.__version__,
    })


def main(argv: list[str]) -> int:
    if argv[:1] == ["--props"]:
        _import_cli()
        print(_props(*(int(a) for a in argv[1:4])))
        return 0
    if argv[:1] != ["--ready-fd"]:
        sys.exit(__doc__)
    fd = int(argv[1])
    cli = _import_cli()
    os.write(fd, str(time.monotonic_ns()).encode())
    os.close(fd)
    rest = argv[2:]
    if rest == ["--setup-only"]:
        return 0
    mode, path = (rest[0], rest[1]) if rest[0] in ("--trace", "--profile") else (None, None)
    cli_args = rest[rest.index("--") + 1:]
    if mode == "--trace":
        import tracer  # next to this file, so already on sys.path

        rec = tracer.install()
        try:
            return cli.main(cli_args)
        finally:
            t_end = time.monotonic_ns()
            sys.stdout.flush()
            rec.dump(path, t_end)
    if mode == "--profile":
        import cProfile

        prof = cProfile.Profile()
        try:
            return prof.runcall(cli.main, cli_args)
        finally:
            prof.dump_stats(path)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
