"""The four perfbench workloads.  Each runs one round of its work in the
current process and reports per-op latencies and failures against the
pinned expectations in ``expected.json``.

An op is one unit of user-visible work: a relation check (`fundamental`),
one streamed pair of the CLI scan (`scan`), one subset built by every
order (`construct`), or one symbolic-plus-numeric pair check (`oracle`).
The seed picks the oracle sample.  The other three workloads are fixed
suites that cover their whole input space, so the seed does not change
them, and their ops run in suite order.

Every call into the program goes through a module attribute
(``relations.check_star``, ``extension.build``, ...), so that a tracer that
patches those attributes sees it.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Full sizes, and the tiny sizes of the smoke tests.
SIZES = {
    "fundamental": {"full": {"arity": 7}, "tiny": {"arity": 4}},
    "scan": {"full": {"n": 5}, "tiny": {"n": 3}},
    "construct": {"full": {"n": 8}, "tiny": {"n": 4}},
    "oracle": {"full": {"n": 4, "pairs": 64}, "tiny": {"n": 3, "pairs": 8}},
}

BACKENDS = ("aw", "bi")


class Round:
    """Outcome of one round: per-op latencies, failures, gate findings."""

    def __init__(self):
        self.lat_ms = []
        self.attempted = 0
        self.failed = 0
        self.gate = {}

    def op(self, ok, seconds):
        self.attempted += 1
        self.lat_ms.append(seconds * 1000.0)
        if not ok:
            self.failed += 1

    def raised(self, what):
        print(f"op {what} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1


def subsets(n):
    for r in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), r)


# -- fundamental ----------------------------------------------------------------

def run_fundamental(size, seed, expected, op_span):
    """`relations.suite_fundamental` up to the arity limit, on aw and then
    on bi: one standard-relation check per op, in suite order."""
    from awbi import relations
    out = Round()
    want = expected["holds_star"]
    for name in BACKENDS:
        backend = relations.get_backend(name)
        for fam, k, ell, A, B, n in relations.fundamental_families(size["arity"]):
            label = f"{name} {fam} k={k} l={ell}"
            t0 = time.perf_counter()
            try:
                with op_span(label):
                    rep = relations.check_star(A, B, n, backend)
            except Exception:
                out.raised(label)
                continue
            out.op(rep.holds_star == want, time.perf_counter() - t0)
    return out


# -- scan --------------------------------------------------------------------------

class _StampedLines(io.TextIOBase):
    """A text sink that keeps each completed line with the time it ended."""

    def __init__(self):
        self.lines = []
        self.times = []
        self._part = []

    def writable(self):
        return True

    def write(self, s):
        size = len(s)
        while s:
            i = s.find("\n")
            if i < 0:
                self._part.append(s)
                break
            self._part.append(s[:i])
            self.lines.append("".join(self._part))
            self.times.append(time.perf_counter())
            self._part = []
            s = s[i + 1:]
        return size


def verdict_code(obj):
    """One hex digit per pair: holds_star, holds_comm, pattern_predicted."""
    return "%x" % (4 * obj["holds_star"] + 2 * obj["holds_comm"]
                   + obj["pattern_predicted"])


def stream_digest(lines):
    """sha256 of the JSON stream with the run-dependent elapsed_s dropped
    from the closing summary line."""
    *pairs, last = lines
    summary = json.loads(last)
    summary["summary"].pop("elapsed_s", None)
    h = hashlib.sha256()
    for line in pairs + [json.dumps(summary, sort_keys=True)]:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def run_scan(size, seed, expected, op_span):
    """`awbi scan --output json --workers 1` on aw, in-process.  Each
    streamed line is timestamped; a pair's latency is the gap to the line
    before it (the first pair counts from the start of the call)."""
    from awbi import cli
    n = size["n"]
    argv = ["scan", "--n", str(n), "--max-scan-n", str(n), "--backend", "aw",
            "--output", "json", "--workers", "1"]
    pin = expected[str(n)]
    sink = _StampedLines()
    out = Round()
    t0 = time.perf_counter()
    code = None
    try:
        with op_span("scan"), redirect_stdout(sink):
            code = cli.main(argv)
    except Exception:
        print("scan raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    prev = t0
    pair_lines = sink.lines[:-1] if code is not None else sink.lines
    for i, (line, t) in enumerate(zip(pair_lines, sink.times)):
        obj = json.loads(line)
        ok = i < len(pin["verdicts"]) and verdict_code(obj) == pin["verdicts"][i]
        out.op(ok, t - prev)
        prev = t
    missing = len(pin["verdicts"]) - len(pair_lines)
    out.attempted += max(missing, 0)
    out.failed += max(missing, 0)
    gate = {"exit_code": code}
    if code is not None and sink.lines:
        summary = json.loads(sink.lines[-1])["summary"]
        dis = summary["pattern_disagreements"]
        gate.update({
            "sha256": stream_digest(sink.lines),
            "star_holds": summary["star_holds"],
            "comm_holds": summary["comm_holds"],
            "pattern_predicted": summary["pattern_predicted"],
            "disagreements": len(dis),
            "disagreements_degenerate": sum(d["containment_degenerate"] for d in dis),
            "containment_comm_failures": len(summary["containment_comm_failures"]),
        })
    want = {"exit_code": 0, **{k: v for k, v in pin.items() if k != "verdicts"}}
    bad = sorted(k for k, v in want.items() if gate.get(k) != v)
    gate["mismatched"] = bad
    if bad and out.failed == 0:
        out.failed = 1              # the stream as a whole is wrong
    out.gate = gate
    return out


# -- construct -------------------------------------------------------------------

def orders(k):
    return ["right", "left", "derived"] + [f"mixed:{j}" for j in range(1, k + 1)]


def run_construct(size, seed, expected, op_span):
    """Every nonempty subset of [1;n] under every construction order, on
    aw and then on bi.  One op is one subset on one backend: build it by
    `right` and then by every other order, each of which must equal the
    `right` build."""
    from awbi import extension, relations
    n = size["n"]
    out = Round()
    for name in BACKENDS:
        backend = relations.get_backend(name)
        for A in subsets(n):
            if not A:
                continue
            S = extension.IndexSet(n, A)
            label = f"{name} {A}"
            t0 = time.perf_counter()
            try:
                with op_span(label):
                    ref, *others = [extension.build(S, backend, extension.make_plan(S, order))
                                    for order in orders(len(A))]
                    ok = all(g == ref for g in others)
            except Exception:
                out.raised(label)
                continue
            out.op(ok, time.perf_counter() - t0)
    return out


# -- oracle ------------------------------------------------------------------------

def oracle_pairs(n, k, seed):
    """A seeded sample of k ordered pairs of subsets of [1;n], stratified by
    cost so that every seed asks for about the same work at every rank.
    The strata are the k blocks for n in ``oracle_blocks.json``: the pairs
    sorted by the cost of one check at commit 29b82cc, cut where that cost
    jumps (see oracle_blocks.py).  One pair is drawn from each block, and
    the sample runs in block order.  A uniform sample of 64 of the 256
    pairs at n=4 varies by about 15 % (quartile spread) in total work
    between seeds; this one by under 1 %."""
    blocks = json.loads((HERE / "oracle_blocks.json").read_text()).get(str(n))
    if blocks is None or len(blocks) != k:
        raise ValueError(f"oracle_blocks.json has no {k} strata at n={n}; "
                         "derive them with oracle_blocks.py")
    rng = random.Random(seed)
    return [tuple(tuple(s) for s in rng.choice(block)[:2]) for block in blocks]


def run_oracle(size, seed, expected, op_span):
    """Symbolic verdict of the standard relation against the exact-rational
    oracle on spin-1/2 legs, one pair per op in block order; the two must
    agree.  Each pair starts from empty generator and product caches, as
    one `awbi check --numeric` process would, so that its cost does not
    depend on which pairs the seed drew before it."""
    from awbi import numoracle, relations
    n = size["n"]
    backend = relations.get_backend("aw")
    out = Round()
    for A, B in oracle_pairs(n, size["pairs"], seed):
        label = f"aw {A} {B}"
        relations.clear_caches()
        t0 = time.perf_counter()
        try:
            with op_span(label):
                lhs, rhs = relations.star_sides(A, B, n, backend)
                symbolic = (lhs - rhs).is_zero()
                numeric = numoracle.crosscheck_points(lhs, rhs, (2,) * n)
        except Exception:
            out.raised(label)
            continue
        out.op(numeric == symbolic, time.perf_counter() - t0)
    return out


RUNNERS = {
    "fundamental": run_fundamental,
    "scan": run_scan,
    "construct": run_construct,
    "oracle": run_oracle,
}
