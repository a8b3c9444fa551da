"""Benchmark for the anglecover package: one workload per process.

    python3 perfbench/run.py --workload linear --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload, each in a fresh child process.  A
run imports the package from `src/` and sets up the workload's instances
three times; `setup_s` is the median set-up plus the median time of a
fresh import in new interpreters.  It then runs passes over the
operations in a closed loop with one caller until `--seconds` would be
exceeded; there is always at least one pass.  Each operation has the
workload's deadline, enforced in-process by a timer signal.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics.  `--trace 1` runs one untraced and one traced pass and reports
the per-layer metrics.  Spans and per-operation records are written to
`.perfbench/`.  Exit status: 0 when every output passed its reference
check, 1 on a wrong verdict or a rejected certificate, 2 when the package
is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# One run of an operation of a few milliseconds reads mostly noise.
SHORT_OP_S = 0.2
SHORT_OP_REPEATS = 25
# Tracing slows every call; the traced pass allows twice the deadline so
# that no operation that passes untraced fails traced.
TRACED_DEADLINE_FACTOR = 2
CLI_SUBCOMMANDS = ("instance", "gen", "solve", "check", "density", "allocate",
                   "planarize", "medial", "blowup", "decompose", "reduce")


class DeadlineExceeded(BaseException):
    """Raised by the timer signal; a BaseException so that no handler in
    the package can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _attempt(op, deadline: float):
    gc.collect()
    status, out = "passed", None
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status = "deadline"
    except Exception as exc:  # a crash is a recorded outcome, not an abort
        status = f"{type(exc).__name__}: {str(exc)[:160]}"
    if status == "passed" and out.get("verdict") == "INDETERMINATE":
        status = "indeterminate"
    try:
        problems = op.check(out) if status == "passed" else []
    except (LookupError, TypeError, ValueError) as exc:
        problems = [f"output could not be read: {exc!r}"]
    return status, out, problems, perf_counter() - t0


def run_op(op, deadline: float, repeat: bool = False) -> dict:
    """Run one operation under the deadline, then its reference check.
    A failed operation (exception, deadline, INDETERMINATE) is charged
    the deadline; its outputs are not checked.  With `repeat`, an
    operation faster than SHORT_OP_S runs again, up to SHORT_OP_REPEATS
    times, and is timed by its fastest run: at a few milliseconds, noise
    from outside the process only ever adds time."""
    times = []
    while True:
        status, out, problems, seconds = _attempt(op, deadline)
        times.append(seconds)
        if (not repeat or status != "passed" or problems
                or sum(times) >= SHORT_OP_S or len(times) >= SHORT_OP_REPEATS):
            break
    seconds = min(times)
    return {
        "op": op.name,
        "status": status,
        "seconds": seconds,
        "repeats": len(times),
        "charged": seconds if status == "passed" else deadline,
        "verdict": (out or {}).get("verdict"),
        "problems": problems,
    }


def run_pass(ops, deadline, tracer=None, kept_counts=None, repeat=False) -> list[dict]:
    rows = []
    for op in ops:
        if tracer:
            tracer.op = op.name
            tracer.counts.clear()
        row = run_op(op, deadline, repeat)
        if tracer:
            # How far a search gets before the deadline depends on the
            # machine, so counts of operations it cut are not kept.
            row["counted"] = dict(tracer.counts)
            if row["status"] != "deadline":
                kept_counts.update(tracer.counts)
        rows.append(row)
    return rows


def run_passes(ops, deadline, seconds) -> list[list[dict]]:
    """Closed loop: start another pass only if it should end in time."""
    passes, t_start = [], perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(ops, deadline, repeat=True))
        now = perf_counter()
        if now - t_start + (now - t0) > seconds:
            return passes


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and that
    percentile; the maximum (p100) when that percentile would not lie
    above the median, that is with twenty values or fewer."""
    xs = sorted(values)
    k = len(xs) - 10
    if k <= len(xs) // 2:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(rows_by_pass, setup_s, peak_rss_kb) -> tuple[dict, str]:
    rows = [r for p in rows_by_pass for r in p]
    latencies = [r["seconds"] for r in rows]
    tail_s, pct = tail(latencies)
    passed = sum(r["status"] == "passed" for r in rows)
    metrics = {
        "run_s": _metric(statistics.median(
            sum(r["charged"] for r in p) for p in rows_by_pass), "s"),
        "setup_s": _metric(setup_s, "s"),
        "passed_share": _metric(passed / len(rows), "ratio"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024, "MB"),
    }
    note = (f"call_p50_s {statistics.median(latencies):.6g} s, call_tail_s "
            f"{tail_s:.6g} s (p{pct:g} of {len(latencies)} calls)")
    return metrics, note


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, names in spans.TRACED.items():
        for fn in names:
            base = f"{layer}.{fn}"
            out += [(f"{base}_s", "s", "lower"), (f"{base}_self_s", "s", "lower"),
                    (f"{base}_calls", "count", "lower")]
    out += [
        ("fileio.parse_mb_per_s", "MB/s", "higher"),
        ("solve.min_arc_cover_calls", "count", "lower"),
        ("solve.oracle_decided_ratio", "ratio", "higher"),
        ("allocate.decided_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("cli.call_p50_s", "s", "lower"),
        ("cli.call_tail_s", "s", "lower"),
    ]
    out += [(f"cli.{c}_p50_s", "s", "lower") for c in CLI_SUBCOMMANDS]
    out.append(("trace_overhead_share", "ratio", "lower"))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, kept_counts, untraced, traced, ops, import_s) -> dict:
    agg = spans.aggregate(tracer.spans)
    values = {}
    for layer, names in spans.TRACED.items():
        for fn in names:
            total, self_s, calls = agg.get(f"{layer}.{fn}", (0.0, 0.0, 0))
            values[f"{layer}.{fn}_s"] = total
            values[f"{layer}.{fn}_self_s"] = self_s
            values[f"{layer}.{fn}_calls"] = calls

    def outcomes(name):
        return Counter(s[spans.OUTCOME] for s in tracer.spans if s[spans.NAME] == name)

    parse_bytes = sum(s[spans.SIZE] for s in tracer.spans
                      if s[spans.NAME] == "fileio.parse_instance")
    oracle = outcomes("solve.oracle_solve")
    alloc = outcomes("allocate.optimal_allocation")
    # CLI latencies come from the untraced pass, as in an end-to-end run.
    by_sub: dict[str, list] = {}
    for row, op in zip(untraced, ops):
        if "subcommand" in op.record:
            by_sub.setdefault(op.record["subcommand"], []).append(row["seconds"])
    calls = [t for ts in by_sub.values() for t in ts]
    both = [(u["seconds"], t["seconds"]) for u, t in zip(untraced, traced)
            if u["status"] == t["status"] == "passed"]
    base = sum(u for u, _ in both)
    values.update({
        "fileio.parse_mb_per_s": _ratio(parse_bytes / 1e6, values["fileio.parse_instance_s"]),
        "solve.min_arc_cover_calls": kept_counts["solve.min_arc_cover"],
        "solve.oracle_decided_ratio": _ratio(oracle["YES"] + oracle["NO"], sum(oracle.values())),
        "allocate.decided_ratio": _ratio(alloc["returned"], sum(alloc.values())),
        "cli.import_s": import_s,
        "cli.call_p50_s": statistics.median(calls) if calls else 0.0,
        "cli.call_tail_s": tail(calls)[0] if calls else 0.0,
    })
    for c in CLI_SUBCOMMANDS:
        values[f"cli.{c}_p50_s"] = statistics.median(by_sub[c]) if c in by_sub else 0.0
    values["trace_overhead_share"] = _ratio(sum(t for _, t in both) - base, base)
    return {name: _metric(values[name], unit) for name, unit, _ in per_layer_names()}


def cli_import_seconds(ctx, repeats=5) -> float:
    """Median time of a fresh `import anglecover.cli`, measured inside a
    new interpreter."""
    code = ("import time; t = time.perf_counter(); import anglecover.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(ctx),
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _print_rows(rows, ops):
    for row, op in zip(rows, ops):
        size = op.record.get("vertices")
        size = f" V={size} E={op.record['edges']}" if size is not None else ""
        flag = "" if not row["problems"] else "  WRONG: " + "; ".join(row["problems"])
        print(f"  {row['seconds']:9.3f} s  {row['status'][:40]:<14} {op.name}{size}{flag}")


def run_workload(name, seed, seconds, trace) -> tuple[dict, int]:
    wl = workloads.WORKLOADS[name]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = {"workdir": str(workdir), "src": str(ROOT / "src")}
    sys.path.insert(0, ctx["src"])
    try:
        pkg = workloads.load_package()
        import_s = cli_import_seconds(ctx)
        tracer = spans.Tracer() if trace else None
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            if tracer:
                tracer.install()
            t0 = perf_counter()
            ops = wl.build(pkg, seed, ctx)
            setups.append(perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        print(f"workload {name}  seed {seed}  deadline {wl.deadline:g} s  "
              f"{len(ops)} operations  set-up {statistics.median(setups):.3f} s")
        if not trace:
            passes = run_passes(ops, wl.deadline, seconds)
            for i, rows in enumerate(passes):
                print(f" pass {i + 1}")
                _print_rows(rows, ops)
            rusage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            metrics, note = end_to_end(
                passes, import_s + statistics.median(setups),
                resource.getrusage(rusage).ru_maxrss)
            rows = [r for p in passes for r in p]
            record = {"passes": passes}
        else:
            untraced = run_pass(ops, wl.deadline)
            kept = Counter()
            tracer.install()
            try:
                traced = run_pass(ops, wl.deadline * TRACED_DEADLINE_FACTOR, tracer, kept)
            finally:
                tracer.uninstall()
            print(" untraced pass")
            _print_rows(untraced, ops)
            print(" traced pass")
            _print_rows(traced, ops)
            metrics = per_layer(tracer, kept, untraced, traced, ops, import_s)
            note = "per-layer metrics from the traced pass"
            rows = untraced + traced
            record = {"untraced": untraced, "traced": traced, "spans": tracer.spans}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not any(r["problems"] for r in rows)
    failed = sum(r["status"] != "passed" for r in rows)
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {note}; {failed} of {len(rows)} operations failed")
    record.update(workload=name, seed=seed, deadline=wl.deadline, setup_s=setups,
                  import_s=import_s, ops={op.name: op.record for op in ops})
    with open(out_dir / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, default=str)
    result = {"correct": correct, "attempted": len(rows), "failed": failed,
              "metrics": metrics}
    return result, 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anglecover" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'anglecover'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    result, status = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
