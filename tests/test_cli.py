"""Command-line surface: flags, exit codes, JSON output, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from awbi.cli import main
from awbi.pbw import AlgElem
from awbi.relations import get_backend


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_right_equals_left(capsys):
    code, out = run(capsys, "build", "--set", "1,3", "--n", "3",
                    "--process", "right", "--output", "json", "--full")
    assert code == 0
    right = json.loads(out)
    code, out = run(capsys, "build", "--set", "1,3", "--n", "3",
                    "--process", "left", "--output", "json", "--full")
    assert code == 0
    left = json.loads(out)
    assert right["element"] == left["element"]


def test_build_mixed_matches_right_for_worked_example(capsys):
    code, out = run(capsys, "build", "--set", "2,4-5,8", "--n", "9",
                    "--process", "mixed:2", "--output", "json", "--full")
    assert code == 0
    mixed = json.loads(out)
    code, out = run(capsys, "build", "--set", "2,4-5,8", "--n", "9",
                    "--process", "right", "--output", "json", "--full")
    right = json.loads(out)
    assert mixed["element"] == right["element"]


def test_build_singleton(capsys):
    code, out = run(capsys, "build", "--set", "2", "--n", "2")
    assert code == 0
    assert "3 terms" in out


def test_build_element_json_roundtrip(capsys):
    code, out = run(capsys, "build", "--set", "1,3", "--n", "3",
                    "--output", "json", "--full")
    obj = json.loads(out)
    elem = AlgElem.from_json(get_backend("aw"), obj["element"])
    assert elem.arity == 3 and elem.term_count() == obj["terms"]


def test_check_exit_codes(capsys):
    code, _ = run(capsys, "check", "--A", "1,2", "--B", "2,3", "--n", "3")
    assert code == 0
    code, out = run(capsys, "check", "--A", "1,2", "--B", "1,3", "--n", "3")
    assert code == 1
    assert "FAILS" in out and "residual" in out
    code, _ = run(capsys, "check", "--A", "1,2,3", "--B", "2", "--n", "3",
                  "--relation", "comm")
    assert code == 0


def test_check_numeric_flag(capsys):
    code, out = run(capsys, "check", "--A", "1,2", "--B", "2,3", "--n", "3",
                    "--numeric", "--output", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["numeric"] is True
    code, out = run(capsys, "check", "--A", "1,2", "--B", "1,3", "--n", "5",
                    "--numeric", "--output", "json")
    assert code == 1
    assert json.loads(out)["numeric"] is False


def test_check_comm_numeric_multiplies_each_product_once(capsys, monkeypatch):
    from awbi import relations
    calls = []
    real = AlgElem.__mul__

    def mul(x, y):
        calls.append(1)
        return real(x, y)

    relations.clear_caches()
    monkeypatch.setattr(AlgElem, "__mul__", mul)
    code, out = run(capsys, "check", "--A", "1,2", "--B", "2,3", "--n", "3",
                    "--relation", "comm", "--numeric")
    assert code == 1 and "numeric verdict" in out
    assert len(calls) == 2


def test_check_bad_set_is_error_exit(capsys):
    code = main(["check", "--A", "1,9", "--B", "2", "--n", "3"])
    assert code == 2


def test_scan_json_deterministic(capsys):
    code, out1 = run(capsys, "scan", "--n", "2", "--output", "json")
    assert code == 0
    code, out2 = run(capsys, "scan", "--n", "2", "--output", "json")
    lines1 = [l for l in out1.splitlines() if not l.startswith('{"summary"')]
    lines2 = [l for l in out2.splitlines() if not l.startswith('{"summary"')]
    assert lines1 == lines2          # byte-for-byte, timings excluded
    summary = json.loads(out1.splitlines()[-1])["summary"]
    assert summary["pairs"] == 16


def test_scan_bound_guard(capsys):
    code = main(["scan", "--n", "5", "--max-scan-n", "4"])
    assert code == 2


def test_scan_streams_one_report_per_pair(capsys):
    code, out = run(capsys, "scan", "--n", "2", "--output", "json")
    lines = out.splitlines()
    reports = [json.loads(l) for l in lines if not l.startswith('{"summary"')]
    assert len(reports) == 16
    assert all("holds_star" in r and "pattern_predicted" in r for r in reports)


def test_selftest_small(capsys):
    code, out = run(capsys, "selftest", "--n", "2", "--max-equiv-n", "2",
                    "--fundamental-arity", "3", "--backends", "aw")
    assert code == 0
    assert "ALL OK" in out
    assert "field axioms" in out and "Hopf/comodule" in out


@pytest.mark.parametrize("argv", [
    ["selftest", "--full"],
    ["selftest", "--timing"],
    ["selftest", "--output", "json"],
    ["scan", "--n", "2", "--full"],
    ["build", "--set", "1", "--n", "2", "--timing"],
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_selftest_backend_prefix_selects_one_backend(capsys):
    code, out = run(capsys, "selftest", "--n", "2", "--max-equiv-n", "1",
                    "--fundamental-arity", "3", "--backend", "bi")
    assert code == 0
    assert "[bi] selftest" in out and "[aw]" not in out


def test_config_validation(capsys):
    assert main(["scan", "--n", "2", "--workers", "0"]) == 2
    assert main(["scan", "--n", "2", "--max-scan-n", "1"]) == 2
    code, out = run(capsys, "scan", "--n", "2", "--workers", "1")
    assert code == 0
    assert "backend=aw" in out


@pytest.mark.parametrize("argv, flag", [
    (["scan", "--n", "-1"], "--n"),
    (["scan", "--n", "0"], "--n"),
    (["selftest", "--n", "0", "--backends", "aw"], "--n"),
    (["selftest", "--max-equiv-n", "0", "--backends", "aw"], "--max-equiv-n"),
    (["selftest", "--fundamental-arity", "2", "--backends", "aw"],
     "--fundamental-arity"),
])
def test_vacuous_runs_are_rejected(capsys, argv, flag):
    # a run whose suites would make no check must not report success
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be >= " in captured.err


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "2", "--output", "json"],
    ["check", "--A", "1,2", "--B", "1,3", "--n", "3", "--output", "json"],
])
def test_timing_adds_only_elapsed_ms(capsys, argv):
    code, plain = run(capsys, *argv)
    timed_code, timed = run(capsys, *argv, "--timing")
    assert timed_code == code
    plain, timed = plain.splitlines(), timed.splitlines()
    if argv[0] == "scan":               # the summary carries elapsed_s anyway
        assert plain[-1].startswith('{"summary"') and len(plain) == 17
        plain, timed = plain[:-1], timed[:-1]
    assert len(timed) == len(plain)
    for line, want in zip(timed, plain):
        obj = json.loads(line)
        assert isinstance(obj.pop("elapsed_ms"), float)
        assert json.dumps(obj, sort_keys=True) == want


def test_scan_json_lines_do_not_depend_on_workers(capsys):
    def lines(workers):
        code, out = run(capsys, "scan", "--n", "3", "--output", "json",
                        "--workers", workers)
        assert code == 0
        rows = out.splitlines()
        summary = json.loads(rows[-1])
        del summary["summary"]["elapsed_s"]
        return rows[:-1] + [json.dumps(summary, sort_keys=True)]

    serial = lines("1")
    assert len(serial) == 65
    assert lines("2") == serial


def test_check_numeric_skip_names_reason(capsys):
    code, out = run(capsys, "check", "--A", "1,2", "--B", "2,3", "--n", "3",
                    "--backend", "bi", "--numeric", "--output", "json")
    assert code == 0
    assert json.loads(out)["numeric"] == \
        "skipped (numeric oracle covers the aw backend only)"
    code, out = run(capsys, "check", "--A", "1,2", "--B", "2,3", "--n", "6",
                    "--numeric")
    assert code == 0
    assert "numeric verdict: skipped (n > 5)" in out


def test_scan_reports_noncommuting_pair_with_A_inside_B(capsys, monkeypatch):
    from awbi import relations
    real = relations.check_comm

    def check_comm(A, B, n, backend, keep_residual=True):
        rep = real(A, B, n, backend, keep_residual)
        if (rep.A, rep.B) == ((1,), (1, 2)):
            rep.holds_comm = False
        return rep

    monkeypatch.setattr(relations, "check_comm", check_comm)
    _, summary = relations.scan(2, get_backend("aw"))
    assert summary["containment_comm_failures"] == [{"A": [1], "B": [1, 2]}]
    code, _ = run(capsys, "scan", "--n", "2", "--workers", "1")
    assert code == 1


@pytest.mark.parametrize("pair", (((1,), (2,)), ((1, 3), (2, 3))), ids=("ab", "abc"))
def test_scan_exits_1_when_a_commutation_verdict_disagrees_with_avoidance(capsys, monkeypatch, pair):
    # neither pair is a containment pair: the word ab fits a*b*a* and
    # commutes, abc is an obstruction and does not; flipping either verdict
    # changes only the commuting count and the exit code
    from awbi import relations
    real = relations.check_comm

    def check_comm(A, B, n, backend, keep_residual=True):
        rep = real(A, B, n, backend, keep_residual)
        if (rep.A, rep.B) == pair:
            rep.holds_comm = not rep.holds_comm
        return rep

    code, out = run(capsys, "scan", "--n", "4", "--max-scan-n", "4", "--output", "json")
    assert code == 0
    monkeypatch.setattr(relations, "check_comm", check_comm)
    flipped, out_flipped = run(capsys, "scan", "--n", "4", "--max-scan-n", "4", "--output", "json")
    assert flipped == 1
    summaries = [json.loads(o.splitlines()[-1])["summary"] for o in (out, out_flipped)]
    for summary in summaries:
        del summary["elapsed_s"], summary["comm_holds"]
    assert summaries[0] == summaries[1]


def test_build_empty_set(capsys):
    code, out = run(capsys, "build", "--set", "", "--n", "3")
    assert code == 0
    assert "1 terms" in out


def test_scan_into_closed_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe, as under `awbi scan ... | head` once head exits
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "awbi", "scan", "--n", "2", "--max-scan-n", "2",
             "--output", "json"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 0


def test_build_empty_set_rejects_unknown_process(capsys):
    assert main(["build", "--set", "", "--n", "3", "--process", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unknown process 'bogus'" in captured.err


def test_selftest_resolves_every_backend_before_running(capsys):
    assert main(["selftest", "--n", "1", "--max-equiv-n", "1",
                 "--fundamental-arity", "3", "--backends", "aw,"]) == 2
    captured = capsys.readouterr()
    assert "[aw] selftest" not in captured.out
    assert "error: unknown backend ''" in captured.err


def test_serial_run_does_not_import_the_process_pool():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, awbi.cli\n"
            "from awbi.relations import get_backend\n"
            "for name in ('aw', 'bi'):\n"
            "    get_backend(name).lattice\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
