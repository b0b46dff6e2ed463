"""Smoke tests of the benchmark at tiny sizes: scan n=3, fundamental arity 4,
construct n=4, oracle with 8 pairs at n=3.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import tail_percentile  # noqa: E402
from workloads import SIZES, oracle_pairs, orders, run_scan  # noqa: E402


def bench(*args, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1",
                        "--tiny", *args], cwd=cwd, capture_output=True,
                       text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    return r.returncode, json.loads(lines[-1]) if lines else None, r


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    code, last, r = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert code == 0, r.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    assert "ops_failed_frac 0 " in r.stdout


def test_traced_run_reports_every_per_layer_metric():
    code, last, r = bench("--workload", "scan", "--seed", "1", "--trace", "1")
    assert code == 0, r.stderr
    metrics = last["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # 64 pairs at n=3, one star and one commutation check each.  The scan
    # calls check_star, check_comm, predict_pattern and generator through
    # the relations module's own bindings, so these counts show that those
    # bindings were wrapped, not only the defining modules' names.
    assert metrics["relations.check_star_calls"]["value"] == 64
    assert metrics["relations.check_comm_calls"]["value"] == 64
    assert metrics["extension.generator_calls"]["value"] > 0
    assert metrics["relations.predict_pattern_s"]["value"] > 0
    assert 0 < metrics["relations.prod_hit_frac"]["value"] < 1
    spans = (HERE / "out" / "tiny-spans-scan-seed1.jsonl").read_text().splitlines()
    sid, parent, name, t0, t1 = json.loads(spans[1])
    assert (parent, name) == (0, "cli.main") and t1 >= t0


@pytest.mark.parametrize("tamper", ["sha256", "verdicts"])
def test_wrong_pinned_expectation_fails_the_gate(tamper):
    expected = json.loads((HERE / "expected.json").read_text())["scan"]
    size = SIZES["scan"]["tiny"]
    pin = expected[str(size["n"])]
    if tamper == "sha256":
        pin["sha256"] = "0" * 64
    else:
        pin["verdicts"] = "0" + pin["verdicts"][1:]
    rnd = run_scan(size, 1, expected, lambda _: nullcontext())
    assert rnd.failed >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, last, r = bench("--workload", "scan", "--seed", "1", "--trace", "0",
                          cwd=tmp_path)
    assert code != 0 and last is None


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(54) == 80.0
    assert tail_percentile(64) == 80.0
    assert tail_percentile(1024) == 99.0
    assert tail_percentile(510) == 98.0


def test_workload_sizes_match_their_definitions():
    n = SIZES["construct"]["full"]["n"]
    assert 2 * sum(len(orders(k)) * comb(n, k) for k in range(1, n + 1)) == 3578
    for size in SIZES["oracle"].values():
        n, k = size["n"], size["pairs"]
        assert len(oracle_pairs(n, k, 1)) == k
        assert oracle_pairs(n, k, 1) == oracle_pairs(n, k, 1)
        assert oracle_pairs(n, k, 1) != oracle_pairs(n, k, 2)
    with pytest.raises(ValueError):
        oracle_pairs(5, 64, 1)
