"""awbi benchmark: one workload, one seed, a closed loop of fresh processes.

    python3 perfbench/run.py --workload fundamental --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each round is one fresh single-threaded interpreter (``worker.py``) that
imports awbi with cold caches and does the workload's ops one after the
other.  Rounds repeat until the next one would end after --seconds (at
least one round).  Set-up time is also sampled in extra processes that
only import, so that its median rests on at least SETUP_SAMPLES values.

--trace 0 reports the end-to-end metrics: wall time and peak memory as
medians over rounds, op latencies over the ops of all rounds pooled.
--trace 1 runs one untraced and one traced round and reports the
per-layer metrics of the traced one, plus the tracing overhead; its spans
go to perfbench/out/.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 exactly when every op matched its
pinned expectation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import RUNNERS, SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 21
# Every child is stopped by this many seconds after the start, so that a
# run ends within 180 s.
RUN_DEADLINE_S = 170
# Candidate tail percentiles, highest first; the tail is the first with at
# least ten samples beyond it.
TAILS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(n):
    for p in TAILS:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def provenance(args, size):
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        if r.returncode == 0:
            sha = r.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu,
            "workload": args.workload, "seed": args.seed, "size": size,
            "trace": args.trace, "seconds": args.seconds}


def child(argv, deadline):
    """Run worker.py with argv until the deadline (a perf_counter value);
    return its final JSON line, or None."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        r = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"worker {argv} stopped at the {RUN_DEADLINE_S} s deadline",
              file=sys.stderr)
        return None
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print(f"worker {argv} exited with {r.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def out_path(args, kind, suffix):
    tiny = "tiny-" if args.tiny else ""
    return OUT / f"{tiny}{kind}-{args.workload}-seed{args.seed}{suffix}"


def round_argv(args, trace=False):
    argv = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    if trace:
        argv += ["--trace", "--spans", str(out_path(args, "spans", ".jsonl"))]
    return argv


def end_to_end(rounds, setup_samples):
    """The end-to-end metrics.  Latencies are pooled over the rounds.  The
    tail percentile is chosen from the ops of one round, so that it stays
    the same when a run fits more or fewer rounds; the pool then has at
    least ten samples beyond it per round."""
    n_ops = len(rounds[0]["lat_ms"])
    tail = tail_percentile(n_ops)
    lat_ms = [x for r in rounds for x in r["lat_ms"]]
    med = statistics.median
    metrics = {
        "setup_s": (med(setup_samples), "s"),
        "wall_s": (med(r["wall_s"] for r in rounds), "s"),
        "op_p50_ms": (med(lat_ms), "ms"),
        "op_tail_ms": (percentile(lat_ms, tail), "ms"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    info = {"tail_percentile": tail, "ops_per_round": n_ops, "rounds": len(rounds),
            "tail_samples": len(lat_ms), "setup_samples": len(setup_samples)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(RUNNERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes instead of the benchmark sizes")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (ROOT / "src" / "awbi" / "__init__.py").is_file():
        print(f"no awbi sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    size = SIZES[args.workload]["tiny" if args.tiny else "full"]
    prov = provenance(args, size)
    print("provenance " + json.dumps(prov, sort_keys=True))

    rounds, traced, broken = [], None, False
    if args.trace:
        rounds.append(child(round_argv(args), deadline))
        traced = child(round_argv(args, trace=True), deadline)
        broken = None in rounds or traced is None
    else:
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            r = child(round_argv(args), deadline)
            if r is None:
                broken = True
                break
            rounds.append(r)
            now = time.perf_counter()
            if (now - t_start) + (now - t0) > args.seconds:
                break
    done = [r for r in rounds + [traced] if r is not None]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    for r in done:
        if r["gate"]:
            print("gate " + json.dumps(r["gate"], sort_keys=True))

    metrics, report = {}, {"provenance": prov}
    if not broken and not args.trace:
        setup = [r["setup_s"] for r in rounds]
        while len(setup) < SETUP_SAMPLES:
            s = child(["--setup-only"], deadline)
            if s is None:
                broken = True
                break
            setup.append(s["setup_s"])
    if broken:
        attempted, failed = attempted + 1, failed + 1
    elif not args.trace:
        metrics, info = end_to_end(rounds, setup)
        report.update(info)
        report["rounds_raw"] = [{k: v for k, v in r.items() if k != "lat_ms"} for r in rounds]
        print(f"op_tail_ms is p{info['tail_percentile']:g} of {info['tail_samples']} ops "
              f"pooled over {info['rounds']} rounds of {info['ops_per_round']}; "
              f"setup_s is the median of {info['setup_samples']} samples")
    else:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - rounds[0]["wall_s"],
                                       "unit": "s"}
        report.update(traced_wall_s=traced["wall_s"], untraced_wall_s=rounds[0]["wall_s"],
                      spans=traced["spans"])
        print(f"traced wall_s {traced['wall_s']:.4f} s, untraced wall_s "
              f"{rounds[0]['wall_s']:.4f} s, {traced['spans']} spans")
    correct = failed == 0
    report.update(attempted=attempted, failed=failed, correct=correct,
                  ops_failed_frac=failed / attempted)
    print(f"ops_failed_frac {failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    out_path(args, "result", f"-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
