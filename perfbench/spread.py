"""Run-to-run spread of the end-to-end metrics, as the acceptance check of
the benchmark measures it.

    python3 perfbench/spread.py --seeds 10 [--workloads scan,oracle]
        [--out FILE] [--against FILE]

For each workload, runs the benchmark command of BENCHMARK.json once per
seed (1..N), then prints ops_failed_frac and, for every end-to-end metric,
the median with its unit, the quartile spread (Q3 - Q1, from
statistics.quantiles(values, n=4)) as a share of the median, the metric's
bound, and whether the spread is under a third of the bound.  --out keeps
every run's result as JSON.  --against reads such a file from an earlier
set of runs and also prints how much worse each median got, flagging a
change worse than the bound.  The exit code is 0 when every run was
correct, every spread but set-up's was under a third of its bound, and no
median got worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(runs, name):
    """Median of a metric over runs, and its quartile spread as a share of
    the median (0 with fewer than two runs)."""
    vals = [run["metrics"][name]["value"] for run in runs]
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", type=Path)
    p.add_argument("--against", type=Path)
    args = p.parse_args(argv)

    before = json.loads(args.against.read_text()) if args.against else {}
    runs = {}
    steady = True
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = r.stdout.strip().splitlines()
            if not lines:
                print(f"{wl} seed {seed}: exit {r.returncode}, no result\n{r.stderr}")
                return 1
            last = json.loads(lines[-1])
            if r.returncode != 0 or not last["correct"]:
                print(f"{wl} seed {seed}: exit {r.returncode}, correct {last['correct']}")
                steady = False
            runs[wl].append({"seed": seed, **last})
        attempted = sum(run["attempted"] for run in runs[wl])
        failed = sum(run["failed"] for run in runs[wl])
        print(f"{wl:12s} ops_failed_frac {failed / attempted:.6g} "
              f"(failed {failed} of {attempted})")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med, share = summary(runs[wl], name)
            ok = share < bound / 3
            steady &= ok or name == "setup_s"
            line = (f"{wl:12s} {name:12s} median {med:12.6g} {m['unit']:3s} "
                    f"spread {share:7.2%}  bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
            if wl in before:
                old, _ = summary(before[wl], name)
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                steady &= worse <= bound
                line += f"  worse by {worse:+.2%} {'ok' if worse <= bound else 'REGRESSED'}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
