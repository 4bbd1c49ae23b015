"""Self-checks of the benchmark: the span tracer and the output gate.

    python3 -m pytest perfbench

Each traced case runs one tiny CLI command three times in fresh processes:
untraced, traced, and under cProfile.
"""

import os
import pstats
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402

CASES = {
    "verify-full": ["verify", "--p", "3", "--r", "1", "--suite", "full"],
    "pim-table": ["pim-table", "--p", "2", "--r", "1", "--rprime", "2"],
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request, tmp_path_factory):
    args = CASES[request.param]
    tmp = tmp_path_factory.mktemp(request.param)
    deadline = time.monotonic() + 300
    spans, prof = str(tmp / "spans.npz"), str(tmp / "profile.out")
    plain = run.spawn(["--", *args], True, deadline)
    traced = run.spawn(["--trace", spans, "--", *args], True, deadline)
    profiled = run.spawn(["--profile", prof, "--", *args], True, deadline)
    for s in (plain, traced, profiled):
        assert s["rc"] == 0, s["stderr"]
    return plain, traced, tracer.aggregate(spans, traced["t_spawn_ns"]), pstats.Stats(prof)


def _profiled_calls(stats: pstats.Stats, func: str) -> int:
    return sum(
        nc for (path, _, name), (_, nc, *_rest) in stats.stats.items()
        if name == func and path.endswith(os.path.join("sl2hyper", "algebra.py"))
    )


def test_traced_stdout_is_byte_identical(case):
    plain, traced, _, _ = case
    assert traced["stdout"] == plain["stdout"]
    assert traced["stdout_sha256"] == plain["stdout_sha256"]


def test_call_counts_match_cprofile(case):
    _, _, layers, stats = case
    calls = layers["calls_by_group"]
    assert layers["algebra.mul.calls"] > 0
    assert calls[tracer.MUL] + calls[tracer.SCALE] == _profiled_calls(stats, "__mul__")
    assert layers["algebra.weightfn_to_coeffs.calls"] > 0
    assert layers["algebra.weightfn_to_coeffs.calls"] == _profiled_calls(stats, "weightfn_to_coeffs")


def test_self_times_sum_to_traced_wall(case):
    _, _, layers, _ = case
    total = sum(layers[m] for m in set(tracer.SELF_METRIC.values())) + layers["other.self_s"]
    assert total == pytest.approx(layers["traced_wall_s"], abs=1e-6)
    assert all(layers[m] >= 0 for m in tracer.SELF_METRIC.values())
    assert layers["other.self_s"] > 0


def _sample(**kw):
    s = {"timed_out": False, "rc": 0, "stderr": "", "stdout": None}
    s.update(kw)
    return s


def test_output_gate():
    ref = {"sha256": "ab", "bytes": 3, "ops": 7}
    cases = [
        (_sample(stdout_sha256="ab", stdout_bytes=3), True),
        (_sample(stdout_sha256="cd", stdout_bytes=3), False),
        (_sample(stdout_sha256="ab", stdout_bytes=3, rc=1), False),
        (_sample(stdout_sha256="ab", stdout_bytes=3, timed_out=True), False),
    ]
    for s, ok in cases:
        run.judge("census", run.DEFAULT_SEED, s, ref)
        assert (s["ok"], s["ops"], s["failed"]) == (ok, 7, 0 if ok else 7)


def test_verify_gate_at_another_seed():
    ref = {
        "sha256": "ab", "bytes": 3, "ops": 2, "checks": ["a", "b"],
        "summary": f"2/2 checks passed [p=3 suite=full seed={run.DEFAULT_SEED}]",
    }
    good = "PASS a\nPASS b (detail)\n2/2 checks passed [p=3 suite=full seed=7]\n"
    bad = "PASS a\nFAIL b (detail)\n1/2 checks passed [p=3 suite=full seed=7]\n"
    for text, ok in ((good, True), (bad, False), (good.replace("seed=7", "seed=8"), False)):
        s = _sample(stdout=text, stdout_sha256="xx", stdout_bytes=len(text))
        run.judge("full-suite", 7, s, ref)
        assert s["ok"] is ok


def test_benchmark_file_names_the_printed_metrics():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
