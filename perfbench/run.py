"""Benchmark of the sl2hyper CLI: time to a certified or emitted result.

    python3 perfbench/run.py --workload certify --seed 20240601 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the root of a checkout; the package is imported from `src/`.
Each sample is one fresh CLI process, spawned only after the previous one
has exited (a closed loop with a single client: the CLI is a batch tool, not
a server).  Samples are taken until `--seconds` is used up.

With `--trace 0` the JSON line carries the end-to-end metrics, each a median
over the run: wall_norm (a sample's spawn-to-exit wall time divided by the
mean wall time of `calibrate.py`, a fixed reference process, run just before
and just after it), setup_s
(spawn until `sl2hyper.cli` is imported and `main` is about to run; several
set-up-only processes add samples) and peak_rss_mb (that process's own peak
RSS, from wait4).  The printed table adds the raw wall_s and calibrate_s.
With `--trace 1` untraced and traced processes alternate, and the per-layer
metrics come from the spans that `tracer.py` records in the traced ones.

Every sample is checked against the reference outputs in `reference.json`,
recorded at the default seed with `--record-reference`: it must exit 0 and
print exactly the reference bytes.  The `verify` workloads at another seed
must pass every reference check by name.  A sample that fails any of this
fails all of its operations (checks, rows or idempotents).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it are the same
results for people to read.  A JSON record of the run, with every sample and
an environment stamp, is written under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import subprocess
import sys
import time
from statistics import median

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 20240601

# Contexts are sized so one process takes 1.5-6 s on a 2-core host, which
# leaves several samples per run; each keeps the layer profile named here.
WORKLOADS = {
    # 108 labels, 11,556 ordered pairs: all-pairs orthogonality, so
    # HyperElem.__mul__ is nearly the whole profile.
    "certify": ("verify", 3, 2, 3, ["--suite", "basic"]),
    # The same 108 idempotents through the left-ideal closure:
    # weightfn_to_coeffs leads, then small products and the sparse echelon.
    "census": ("pim-table", 3, 2, 3, []),
    # 1,296 idempotents built by z_operator/fr_prime at depth 4 and written
    # as 5.7 MB of JSON: few large products, serialisation and memory.
    "emit": ("idempotents", 3, 4, 4, ["--format", "json"]),
    # The full suite: modp, fpoly, Frobenius round trips, the Weyl oracle and
    # verify's dense rank; the only result that depends on the seed.
    "full-suite": ("verify", 3, 2, 2, ["--suite", "full"]),
}

SETUP_SPAWNS = 5  # set-up-only processes per run, besides one discarded warm-up
RUN_BUDGET_S = 170.0  # a whole run, whatever --seconds says
CHILD_TIMEOUT_S = 120.0

# The raw wall time drifts with the shared host's speed: ten-run spreads
# of 0.09-0.34 were measured on a 2-core host.  Dividing each sample by the
# wall time of calibrate.py run around it brought them to 0.03-0.16.
END_TO_END = ("wall_norm", "setup_s", "peak_rss_mb")

# Printed for every layer and kept in the run record; the JSON line carries
# the self-time shares instead of the seconds, because a layer a workload
# never enters reads exactly 0 s on every run.
LAYER_TABLE = {
    "modp.binom_mod_p.calls": "count",
    "modp.binom_mod_p.self_s": "s",
    "modp.other.self_s": "s",
    "fpoly.calls": "count",
    "fpoly.self_s": "s",
    "algebra.mul.calls": "count",
    "algebra.mul.term_pairs": "count",
    "algebra.mul.zero_frac": "ratio",
    "algebra.mul.self_s": "s",
    "algebra.mul.ns_per_term_pair": "ns",
    "algebra.linear.calls": "count",
    "algebra.linear.self_s": "s",
    "algebra.weightfn_to_coeffs.calls": "count",
    "algebra.weightfn_to_coeffs.self_s": "s",
    "algebra.coeffs_to_weightfn.calls": "count",
    "algebra.coeffs_to_weightfn.self_s": "s",
    "algebra.frobenius.calls": "count",
    "algebra.frobenius.self_s": "s",
    "algebra.serialize.self_s": "s",
    "algebra.other.self_s": "s",
    "idempotents.tuple_idempotent.calls": "count",
    "idempotents.tuple_idempotent.cache_hit_frac": "ratio",
    "idempotents.z_operator.calls": "count",
    "idempotents.self_s": "s",
    "pims.left_ideal_span.calls": "count",
    "pims.left_ideal_span.self_s": "s",
    "pims.left_ideal_span.dim_sum": "count",
    "pims.top_x_exponent.calls": "count",
    "pims.top_x_exponent.self_s": "s",
    "pims.weight_of_idempotent.calls": "count",
    "pims.weight_of_idempotent.self_s": "s",
    "pims.weyl_action.calls": "count",
    "pims.weyl_action.self_s": "s",
    "pims.other.self_s": "s",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.self_s": "s",
    "other.self_s": "s",
    **{m.replace("self_s", "self_frac"): "ratio" for m in dict.fromkeys(tracer.SELF_METRIC.values())},
    "other.self_frac": "ratio",
}
PER_LAYER = (
    *(k for k in LAYER_TABLE if not k.endswith(".self_s")),
    "cli.stdout_bytes",
    "proc.cpu_s",
    "trace.overhead_frac",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cli_args(name: str, seed: int) -> list[str]:
    cmd, p, r, rprime, extra = WORKLOADS[name]
    return [cmd, "--p", str(p), "--r", str(r), "--rprime", str(rprime), *extra, "--seed", str(seed)]


def spawn(args: list[str], keep_stdout: bool, deadline: float) -> dict:
    """Run child.py once; return its timings, rusage and a digest of its stdout."""
    rfd, wfd = os.pipe()
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--ready-fd", str(wfd), *args],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        pass_fds=(wfd,),
    )
    os.close(wfd)
    sha, nbytes, kept, err, ready = hashlib.sha256(), 0, [], [], []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, "out")
        sel.register(proc.stderr, selectors.EVENT_READ, "err")
        sel.register(rfd, selectors.EVENT_READ, "ready")
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                elif key.data == "out":
                    sha.update(data)
                    nbytes += len(data)
                    if keep_stdout:
                        kept.append(data)
                elif key.data == "err":
                    err.append(data)
                else:
                    ready.append(data)
    _, status, ru = os.wait4(proc.pid, 0)
    t_exit = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    os.close(rfd)
    ready_ns = int(b"".join(ready)) if ready else None
    return {
        "rc": proc.returncode,
        "timed_out": timed_out,
        "t_spawn_ns": t0,
        "wall_s": (t_exit - t0) / 1e9,
        "setup_s": (ready_ns - t0) / 1e9 if ready_ns else None,
        "peak_rss_mb": ru.ru_maxrss / 1024,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "stdout_sha256": sha.hexdigest(),
        "stdout_bytes": nbytes,
        "stdout": b"".join(kept).decode("utf-8", "replace") if keep_stdout else None,
        "stderr": b"".join(err).decode("utf-8", "replace")[-2000:],
    }


def verify_lines(text: str) -> tuple[list[str], list[str], str]:
    lines = text.splitlines()
    names = [ln.split()[1] for ln in lines[:-1] if ln.split()]
    verdicts = [ln.split()[0] for ln in lines[:-1] if ln.split()]
    return names, verdicts, lines[-1] if lines else ""


def judge(name: str, seed: int, s: dict, ref: dict) -> None:
    """Set s['ops'], s['failed'] and s['ok'] from the reference outputs."""
    s["ops"] = ref["ops"]
    reason = None
    if s["timed_out"]:
        reason = "timed out"
    elif s["rc"] != 0:
        reason = f"exit code {s['rc']}: {s['stderr'].strip()[-300:]}"
    elif seed == DEFAULT_SEED or WORKLOADS[name][0] != "verify":
        if (s["stdout_sha256"], s["stdout_bytes"]) != (ref["sha256"], ref["bytes"]):
            reason = "stdout differs from the reference"
    else:
        names, verdicts, summary = verify_lines(s["stdout"])
        want = ref["summary"].replace(f"seed={DEFAULT_SEED}]", f"seed={seed}]")
        if names != ref["checks"] or set(verdicts) != {"PASS"} or summary != want:
            reason = "checks differ from the reference"
    s["ok"] = reason is None
    s["failed"] = 0 if s["ok"] else s["ops"]
    s["reason"] = reason


def run_cli(name: str, seed: int, ref: dict, deadline: float, trace_path: str | None = None) -> dict:
    keep = WORKLOADS[name][0] == "verify"
    mode = ["--trace", trace_path] if trace_path else []
    s = spawn([*mode, "--", *cli_args(name, seed)], keep, min(deadline, time.monotonic() + CHILD_TIMEOUT_S))
    judge(name, seed, s, ref)
    return s


def properties(name: str, deadline: float) -> dict:
    _, p, r, rprime, _ = WORKLOADS[name]
    proc = subprocess.run(
        [sys.executable, CHILD, "--props", str(p), str(r), str(rprime)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"property record failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def git_commit() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def calibrate() -> float:
    """Wall seconds of one calibrate.py process, spawn to exit.

    The wait blocks: a wait with a timeout polls, which rounds the time to 50 ms.
    """
    t0 = time.monotonic_ns()
    subprocess.run(
        [sys.executable, CALIBRATE], cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
    )
    return (time.monotonic_ns() - t0) / 1e9


def run_workload(name: str, seed: int, seconds: int, trace: bool, ref: dict) -> dict:
    t_start = time.monotonic()
    deadline = t_start + RUN_BUDGET_S
    load_start = os.getloadavg()[0]
    ncpu = len(os.sched_getaffinity(0))
    spawn(["--setup-only"], False, deadline)  # warm-up: bytecode and page cache
    setup = [spawn(["--setup-only"], False, deadline) for _ in range(SETUP_SPAWNS)]
    props = properties(name, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    samples, traced, layers, calib = [], [], [], [calibrate()]
    t_measure = time.monotonic()
    while True:
        samples.append(run_cli(name, seed, ref, deadline))
        calib.append(calibrate())
        samples[-1]["wall_norm"] = samples[-1]["wall_s"] / ((calib[-2] + calib[-1]) / 2)
        if trace:
            path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.npz")
            s = run_cli(name, seed, ref, deadline, path)
            traced.append(s)
            if s["ok"]:
                layers.append(tracer.aggregate(path, s["t_spawn_ns"]))
            if os.path.exists(path):
                os.remove(path)
        elapsed = time.monotonic() - t_measure
        step = elapsed / len(samples)
        if elapsed + step > seconds or time.monotonic() + 2 * step > deadline:
            break
    load_end = os.getloadavg()[0]

    everything = samples + traced
    attempted = sum(s["ops"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    good = [s for s in samples if s["ok"]]
    # name -> (unit, samples); the value is their median
    table: dict[str, tuple[str, list[float]]] = {}
    if good and not trace:
        table = {
            "wall_s": ("s", [s["wall_s"] for s in good]),
            "calibrate_s": ("s", calib),
            "wall_norm": ("ratio", [s["wall_norm"] for s in good]),
            "setup_s": ("s", [s["setup_s"] for s in setup + good if s["setup_s"] is not None]),
            "peak_rss_mb": ("MiB", [s["peak_rss_mb"] for s in good]),
        }
    elif good and layers:
        traced_wall = median([s["wall_s"] for s in traced if s["ok"]])
        table = {key: (unit, [m[key] for m in layers]) for key, unit in LAYER_TABLE.items()}
        table["cli.stdout_bytes"] = ("B", [s["stdout_bytes"] for s in good])
        table["proc.cpu_s"] = ("s", [s["cpu_s"] for s in good])
        table["trace.overhead_frac"] = ("ratio", [traced_wall / median([s["wall_s"] for s in good]) - 1])
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": median(table[k][1]), "unit": table[k][0]} for k in wanted if k in table}
    correct = failed == 0 and len(metrics) == len(wanted)
    env = {
        "python": platform.python_version(),
        "numpy": props.pop("numpy"),
        "nproc": ncpu,
        "load1_start": load_start,
        "load1_end": load_end,
        "overloaded": max(load_start, load_end) > ncpu,
        "commit": git_commit(),
        "seed": seed,
    }
    props["stdout_bytes"] = good[0]["stdout_bytes"] if good else None
    result = {
        "workload": name,
        "command": ["sl2hyper", *cli_args(name, seed)],
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "properties": props,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "table": {k: {"unit": u, "median": median(v), "samples": v} for k, (u, v) in table.items()},
        "samples": [{k: v for k, v in s.items() if k != "stdout"} for s in samples],
        "traced_samples": [{k: v for k, v in s.items() if k != "stdout"} for s in traced],
        "layers": layers,
    }
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    with open(os.path.join(OUT_DIR, stamp), "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return result


def report(res: dict) -> None:
    env, props = res["env"], res["properties"]
    print(f"== {res['workload']}: {' '.join(res['command'])}")
    print("   properties: " + " ".join(f"{k}={v}" for k, v in props.items()))
    print(
        f"   env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"load1 {env['load1_start']:.2f} -> {env['load1_end']:.2f}, commit {env['commit']}, seed {env['seed']}"
        + ("  [LOAD ABOVE CORE COUNT]" if env["overloaded"] else "")
    )
    for key, row in res["table"].items():
        v = row["samples"]
        spread = f"(min {min(v):.6g}, max {max(v):.6g})" if len(v) > 1 else ""
        print(f"   {key:42s} {row['median']:>14.6g} {row['unit']:6s} median of {len(v):2d} {spread}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"   {'fail_frac':42s} {frac:>14.6g} {'ratio':6s} {res['failed']} of {res['attempted']} operations failed")
    for s in res["samples"] + res["traced_samples"]:
        if not s["ok"]:
            print(f"   FAILED sample: {s['reason']}")


def record_reference() -> None:
    """Write reference.json from the current sources at the default seed."""
    refs = {}
    for name, (cmd, *_rest) in WORKLOADS.items():
        s = spawn(["--", *cli_args(name, DEFAULT_SEED)], True, time.monotonic() + 600)
        if s["rc"] != 0:
            raise BenchError(f"{name}: exit code {s['rc']}: {s['stderr']}")
        text = s["stdout"]
        entry = {"sha256": s["stdout_sha256"], "bytes": s["stdout_bytes"]}
        if cmd == "verify":
            names, verdicts, summary = verify_lines(text)
            if set(verdicts) != {"PASS"}:
                raise BenchError(f"{name}: not every check passes")
            entry.update(ops=len(names), checks=names, summary=summary)
        elif cmd == "pim-table":
            rows = text.splitlines()[1:-1]
            if any(not row.endswith("\tPASS") for row in rows):
                raise BenchError(f"{name}: not every row passes")
            entry["ops"] = len(rows)
        else:
            entry["ops"] = json.loads(text)["count"]
        refs[name] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true", help="rewrite reference.json and exit")
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "sl2hyper", "cli.py")):
            raise BenchError(f"no sl2hyper sources under {ROOT}/src")
        if args.record_reference:
            record_reference()
            return 0
        if not os.path.isfile(REFERENCE):
            raise BenchError(f"missing {REFERENCE}")
        with open(REFERENCE) as fh:
            refs = json.load(fh)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), refs[n]) for n in names]
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
