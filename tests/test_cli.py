import errno
import json
import os
import subprocess
import sys

import pytest

from sl2hyper import cli
from sl2hyper.algebra import AlgebraCtx, element_from_json, element_to_json
from sl2hyper.cli import main
from sl2hyper.idempotents import (
    enumerate_labels,
    format_label,
    parse_label,
    tuple_coords,
    tuple_idempotent,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_idempotents_counts(capsys):
    for args, expected in [
        (("--p", "3", "--r", "1"), 6),
        (("--p", "2", "--r", "2"), 9),
        (("--p", "2", "--r", "1", "--rprime", "2"), 6),
    ]:
        code, out, _ = run(capsys, "idempotents", *args, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == expected == len(payload["idempotents"])


def test_idempotents_round_trip(capsys):
    code, out, _ = run(capsys, "idempotents", "--p", "2", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ctx = AlgebraCtx(payload["p"], payload["r"], payload["rprime"])
    for item in payload["idempotents"]:
        e = element_from_json(item["element"])
        assert e == tuple_idempotent(parse_label(item["label"], ctx), ctx)


def first_difference(a: str, b: str):
    # None when equal, else the first differing index with its context: a
    # failure reports a short window, not a diff of a megabyte-long line
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i, a[max(i - 40, 0) : i + 40], b[max(i - 40, 0) : i + 40]


@pytest.mark.parametrize(
    "p, r, rprime",
    [(2, 1, 1), (2, 2, 3), (3, 2, 3), (5, 2, 2), (11, 1, 2), (13, 1, 1)],
    ids=lambda v: str(v),
)
def test_json_writer_matches_payload_dumps(capsys, tmp_path, p, r, rprime):
    # the oracle: the payload of dicts and lists, dumped compact and sorted
    ctx = AlgebraCtx(p, r, rprime)
    entries = [
        {"label": format_label(lb), "element": element_to_json(tuple_idempotent(lb, ctx))}
        for lb in enumerate_labels(ctx)
    ]
    payload = {"p": p, "r": r, "rprime": rprime, "count": len(entries), "idempotents": entries}
    args = ("--p", str(p), "--r", str(r), "--rprime", str(rprime), "--format", "json")
    code, out, _ = run(capsys, "idempotents", *args)
    assert code == 0 and first_difference(out, cli._json_dumps(payload)) is None
    fixed = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert first_difference(out, fixed) is None
    path = tmp_path / "idem.json"
    code, _, _ = run(capsys, "idempotents", *args, "--out", str(path))
    assert code == 0 and first_difference(path.read_text(encoding="utf-8"), out) is None
    for entry in entries[:: max(1, len(entries) // 7)]:
        code, out, _ = run(capsys, "show", *args, "--label", entry["label"])
        assert code == 0 and first_difference(out, cli._json_dumps(entry)) is None
    code, _, _ = run(capsys, "show", *args, "--label", entry["label"], "--out", str(path))
    assert code == 0 and path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("p, r, rprime", [(3, 4, 4), (5, 2, 3)], ids=str)
def test_entry_json_is_the_dump_of_its_entry(p, r, rprime):
    # the writer reads each label's (nu, x) alone; one shared memo across all
    # entries, keyed by the (weight, value) of each torus factor
    ctx = AlgebraCtx(p, r, rprime)
    labels = enumerate_labels(ctx)
    nus, xs = tuple_coords(labels, ctx)
    rows: dict = {}
    for lb, nu, x in zip(labels, nus.tolist(), xs):
        name, e = format_label(lb), tuple_idempotent(lb, ctx)
        want = cli._json_dumps({"element": element_to_json(e), "label": name})
        assert cli._entry_json(name, ctx, nu, x, rows) + "\n" == want
    assert len(rows) < sum(len(tuple_idempotent(lb, ctx).terms) for lb in labels)
    assert len(rows) <= (p - 1) * ctx.q


def test_show_json_past_int8(capsys):
    # at p = 131 a coordinate of 5:2 is 129, which int8 would wrap
    ctx = AlgebraCtx(131, 1, 1)
    label = parse_label("5:2", ctx)
    assert int(tuple_coords([label], ctx)[1].max()) > 127
    code, out, _ = run(capsys, "show", "--p", "131", "--r", "1", "--label", "5:2", "--format", "json")
    element = element_to_json(tuple_idempotent(label, ctx))
    assert code == 0 and out == cli._json_dumps({"element": element, "label": "5:2"})


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_failing_coordinates_keep_the_out_file(capsys, monkeypatch, tmp_path, fmt):
    # every label's coordinates are computed before the first piece is
    # written, so a build that fails leaves an existing --out file as it was
    def failing(labels, ctx):
        raise ValueError("no coordinates")

    monkeypatch.setattr(cli, "tuple_coords", failing)
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"old contents\n")
    with pytest.raises(ValueError, match="no coordinates"):
        main(["idempotents", "--p", "3", "--r", "2", "--format", fmt, "--out", str(kept)])
    assert kept.read_bytes() == b"old contents\n"
    assert capsys.readouterr().out == ""


# Peak of the Python heap (tracemalloc, numpy's buffers included) while
# `idempotents` at (3,3,3) runs in a fresh interpreter, stdout on a sink that
# counts bytes.  Before int16 storage and the streamed write the peaks were
# 1,673,680 B (JSON) and 2,016,611 B (text).  With every element built
# before the write they were 593,437 B and 601,904 B; written from the
# labels' coordinates, with no element held (JSON) or one at a time
# (text), both are about 340,000 B (Python 3.11).
_TRACE_PEAK = """
import sys, tracemalloc
from sl2hyper.cli import main

class Sink:
    n = 0
    def write(self, text):
        self.n += len(text)
    def flush(self):
        pass

real, sys.stdout = sys.stdout, Sink()
tracemalloc.start()
code = main(sys.argv[1:])
peak = tracemalloc.get_traced_memory()[1]
n, sys.stdout = sys.stdout.n, real
print(code, n, peak)
"""


@pytest.mark.parametrize(
    "fmt, nbytes, bound", [("json", 205010, 450_000), ("text", 207238, 450_000)], ids=["json", "text"]
)
def test_idempotents_output_memory(fmt, nbytes, bound):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = ["idempotents", "--p", "3", "--r", "3", "--format", fmt]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_PEAK, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, written, peak = map(int, proc.stdout.split())
    assert (code, written) == (0, nbytes)
    assert peak < bound, peak


def test_byte_determinism(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "idempotents", "--p", "3", "--r", "1", "--format", "json", "--out", str(path)
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for path, name in [(tmp_path / "v1.json", "v1"), (tmp_path / "v2.json", "v2")]:
        code, _, _ = run(
            capsys, "verify", "--p", "2", "--r", "2", "--format", "json", "--out", str(path)
        )
        assert code == 0
    assert (tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes()


def test_verify_basic_pass(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--r", "3", "--suite", "basic")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_reports_each_check(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--r", "1", "--format", "json", "--suite", "basic")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "idempotency" in names and "orthogonality" in names and "sum-to-one" in names
    assert payload["passed"] is True


@pytest.mark.parametrize("p", [2, 3])
def test_verify_full_depth2(capsys, p):
    code, out, _ = run(capsys, "verify", "--p", str(p), "--r", "2", "--suite", "full")
    assert code == 0
    assert "FAIL" not in out
    assert f"PASS split-product-independence ({p**6} products)" in out.splitlines()
    assert "25/25 checks passed" in out


def test_verify_full_census_above_1024(capsys):
    # ambient dimension 2**11 = 2048: certified, not skipped for size
    code, out, _ = run(capsys, "verify", "--p", "2", "--r", "3", "--rprime", "5", "--suite", "full")
    assert code == 0
    assert "PASS pim-census (census 2048 = ambient dim)" in out.splitlines()


def test_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--p", "4", "--r", "1")
    assert code == 2 and "prime" in err
    code, _, err = run(capsys, "show", "--p", "5", "--r", "1", "--label", "9:0")
    assert code == 2 and "9:0" in err
    code, _, err = run(capsys, "idempotents", "--p", "3", "--r", "2", "--rprime", "1")
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("--p", "1000003", "--r", "1"),
        ("--p", "3", "--r", "1", "--rprime", "1000000000"),
        ("--p", "2305843009213693951", "--r", "1"),
        ("--p", "3", "--r", "1", "--rprime", "7", "--suite", "full"),
    ],
    ids=["large-p", "large-rprime", "word-size-p", "full-suite-lift"],
)
def test_context_too_large(capsys, args):
    # rejected before any table is built or any primality test runs
    code, out, err = run(capsys, "verify", *args)
    assert code == 2 and out == ""
    assert "4096" in err


def test_show_text(capsys):
    code, out, _ = run(capsys, "show", "--p", "2", "--r", "1", "--label", "1:0")
    assert code == 0
    assert out == "label 1:0:\nY^(1) C(H,1) X^(1)\n"


def test_show_json_round_trip(capsys):
    code, out, _ = run(capsys, "show", "--p", "3", "--r", "1", "--label", "2:2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ctx = AlgebraCtx(3, 1, 1)
    assert element_from_json(payload["element"]) == tuple_idempotent(
        parse_label("2:2", ctx), ctx
    )


def test_pim_table(capsys):
    code, out, _ = run(capsys, "pim-table", "--p", "2", "--r", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == [
        "label",
        "weight",
        "top_x",
        "lambda_prime",
        "lambda_double_prime",
        "predicted_dim",
        "computed_dim",
        "status",
    ]
    assert len(lines) == 5  # header + 3 rows + census
    assert lines[-1].startswith("census: 8")
    assert all("PASS" in ln for ln in lines[1:4])


def test_pim_table_json(capsys):
    code, out, _ = run(capsys, "pim-table", "--p", "2", "--r", "1", "--rprime", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == 16
    assert len(payload["rows"]) == 6


def test_out_file_and_note(capsys, tmp_path):
    path = tmp_path / "idem.txt"
    code, out, _ = run(capsys, "idempotents", "--p", "2", "--r", "1", "--out", str(path))
    assert code == 0
    assert "3 idempotents written" in out
    assert path.read_text().endswith("count: 3\n")


def test_out_path_unwritable(capsys, tmp_path):
    # a missing directory and a directory path are usage errors, not failures
    for out in (tmp_path / "no" / "such" / "x.json", tmp_path):
        for cmd in (("idempotents", "--p", "2"), ("pim-table", "--p", "2")):
            code, stdout, err = run(capsys, *cmd, "--format", "json", "--out", str(out))
            assert code == 2 and stdout == ""
            assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err


def test_out_path_checked_before_the_work(capsys, tmp_path, monkeypatch):
    # an unwritable --out fails before the table is computed
    def never(ctx):
        raise AssertionError("pim_rows ran before the --out check")

    monkeypatch.setattr(cli, "pim_rows", never)
    (tmp_path / "file").write_text("")
    for out in ("", tmp_path / "missing" / "x.json", tmp_path, tmp_path / "file" / "x.json"):
        code, stdout, err = run(capsys, "pim-table", "--p", "3", "--r", "2", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    # a writable path is only inspected: a command that fails keeps the file
    kept = tmp_path / "kept.txt"
    kept.write_text("old contents\n")
    code, _, err = run(capsys, "show", "--p", "3", "--label", "9:0", "--out", str(kept))
    assert code == 2 and "cannot write" not in err
    assert kept.read_text() == "old contents\n"


def test_argparse_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["idempotents"])  # missing --p
    assert exc.value.code == 2


class _FullStdout:
    # a stdout whose device is full, as /dev/full
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "2", "--r", "1"),
        ("show", "--p", "2", "--r", "1", "--label", "1:0"),
        ("pim-table", "--p", "2", "--r", "1"),
        ("idempotents", "--p", "2", "--r", "1", "--format", "json"),
        ("idempotents", "--p", "2", "--r", "1", "--out", "{out}"),
    ],
    ids=["verify", "show", "pim-table", "idempotents", "idempotents-out-confirmation"],
)
def test_stdout_write_error_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # exit 1 means a check failed; a full stdout is exit 2 with a message
    path = tmp_path / "idem.txt"
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main([a.format(out=path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
    if "--out" in argv:
        assert path.read_text().endswith("count: 3\n")


# the pure-Python io stack keeps the bytes of a failed flush buffered (so the
# interpreter's flush at exit fails again), as some CPython versions' C stack does
_PYIO_STDOUT = (
    "import _pyio, sys; "
    "sys.stdout = _pyio.TextIOWrapper(_pyio.BufferedWriter(_pyio.FileIO(1, 'w', closefd=False)), "
    "encoding='utf-8'); "
)


def _exit_on_dev_full(stack, argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = stack + "from sl2hyper.cli import main; sys.exit(main())"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; " + code, *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("stack", ["", _PYIO_STDOUT], ids=["io", "pyio"])
def test_dev_full_subprocess(stack):
    _exit_on_dev_full(stack, ["verify", "--p", "2", "--r", "1"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("stack", ["", _PYIO_STDOUT], ids=["io", "pyio"])
def test_dev_full_subprocess_streamed(stack):
    # the streamed JSON (10,673 bytes, more than one 8 KiB buffer) fails part
    # way, in a piece after the first
    _exit_on_dev_full(stack, ["idempotents", "--p", "3", "--r", "2", "--format", "json"])


@pytest.mark.parametrize(
    "argv, imported",
    [
        (["idempotents", "--p", "2", "--r", "1"], False),
        (["pim-table", "--p", "2", "--r", "1"], False),
        (["show", "--p", "2", "--r", "1", "--label", "1:0"], False),
        (["verify", "--p", "2", "--r", "1"], True),
    ],
)
def test_only_verify_imports_the_suites(argv, imported):
    # a fresh process: the commands that run no suite neither compile nor
    # import `verify`, and verify's seed is still the suites' default
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys; from sl2hyper.cli import main; main(sys.argv[1:]); print('sl2hyper.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    *out, last = proc.stdout.splitlines()
    assert proc.returncode == 0 and last == str(imported)
    if imported:
        assert out[-1].endswith("seed=20240601]")
