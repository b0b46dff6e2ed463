"""Command-line surface: build generators, check relations between two
index sets, run the exhaustive pair scan, and run the self-test suites.

Exit-code contract: 0 means every expected relation held; nonzero means a
check failed (or bad arguments), so CI can gate on full verification runs.
A reader that closes stdout early ends the run quietly with 0.
Scans stream JSON lines so partial output survives interruption.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import numoracle, relations
from .extension import IndexSet, build, derive_empty_scalar, make_plan
from .relations import get_backend


def cmd_build(args) -> int:
    backend = get_backend(args.backend)
    A = IndexSet.parse(args.set, args.n)
    plan = make_plan(A, args.process)
    if not A.elements and args.process != "right":
        print("empty set: the generator is the scalar element", file=sys.stderr)
    t0 = time.perf_counter()
    g = build(A, backend, plan)
    elapsed = time.perf_counter() - t0
    if args.output == "json":
        obj = {"backend": backend.name, "n": args.n, "set": list(A.elements),
               "process": args.process, "terms": g.term_count(),
               "element": g.to_json() if args.full else None}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"generator for {A} in the {args.n}-fold tensor power "
              f"({backend.name}, {args.process} process)")
        if plan is not None:
            print(f"plan: {plan.render()}")
        print(f"normal form has {g.term_count()} terms "
              f"({elapsed*1000:.0f} ms); leading terms:")
        print(g.pretty(max_terms=None if args.full else 8))
    return 0


def cmd_check(args) -> int:
    backend = get_backend(args.backend)
    A = IndexSet.parse(args.A, args.n).elements
    B = IndexSet.parse(args.B, args.n).elements
    checks = [(args.relation, A, B, args.n)]
    numeric_verdict = None
    if args.numeric:
        if backend.name != "aw":
            numeric_verdict = "skipped (numeric oracle covers the aw backend only)"
        elif args.n > 5:
            numeric_verdict = "skipped (n > 5)"
        else:
            checks.append((args.relation + "_sides", A, B, args.n))
    # one batch, so the sides reuse the check's products where they match
    rep, *sides = relations.run_batch(backend, checks)
    holds = getattr(rep, "holds_" + args.relation)
    residual = getattr(rep, "residual_" + args.relation)
    rep.pattern_predicted, rep.witness = relations.predict_pattern(A, B)
    if sides:
        numeric_verdict = numoracle.crosscheck_points(*sides[0], (2,) * args.n)
    if args.output == "json":
        obj = rep.to_json(include_residual=args.full, include_timing=args.timing)
        obj["relation"] = args.relation
        if numeric_verdict is not None:
            obj["numeric"] = numeric_verdict
        print(json.dumps(obj, sort_keys=True))
    else:
        word = "holds" if holds else "FAILS"
        print(f"{args.relation} relation for A={list(A)}, B={list(B)}, "
              f"n={args.n} ({backend.name}): {word}")
        print(f"pattern predicted: {rep.pattern_predicted}"
              + (f" (form {rep.witness[0]}, parts {rep.witness[1]})"
                 if rep.witness else ""))
        if numeric_verdict is not None:
            print(f"numeric verdict: {numeric_verdict}")
        if not holds:
            print(f"residual has {residual.term_count()} terms:")
            print(residual.pretty(max_terms=6))
    return 0 if holds else 1


def cmd_scan(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.max_scan_n < 2:
        raise ValueError("--max-scan-n must be >= 2")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    backend = get_backend(args.backend)
    if args.n > args.max_scan_n:
        print(f"scan arity {args.n} exceeds the configured bound "
              f"{args.max_scan_n}; raise --max-scan-n explicitly",
              file=sys.stderr)
        return 2
    stream = args.output == "json"

    def progress(rep):
        if stream:
            print(json.dumps(rep.to_json(include_residual=False,
                                         include_timing=args.timing),
                             sort_keys=True), flush=True)

    reports, summary = relations.scan(args.n, backend, workers=args.workers,
                                      progress=progress)
    if stream:
        print(json.dumps({"summary": summary}, sort_keys=True))
    else:
        print(f"scan n={args.n} backend={backend.name}: "
              f"{summary['pairs']} ordered pairs")
        print(f"  standard relation holds: {summary['star_holds']}")
        print(f"  commutator vanishes:     {summary['comm_holds']}")
        print(f"  pattern predicted:       {summary['pattern_predicted']}")
        print(f"  disagreements:           {len(summary['pattern_disagreements'])}")
        for d in summary["pattern_disagreements"]:
            tag = " [containment-degenerate]" if d["containment_degenerate"] else ""
            print(f"    A={d['A']} B={d['B']} holds={d['holds_star']} "
                  f"predicted={d['pattern_predicted']}{tag}")
        print(f"  containment commutation failures: "
              f"{len(summary['containment_comm_failures'])}")
        print(f"  elapsed: {summary['elapsed_s']} s")
    # the scanner's own expectation: a pair commutes exactly when it avoids
    # the eight commutation obstructions (containment pairs among them), and
    # any star/pattern disagreement beyond the degenerate containment cases
    # is an unexplained finding
    unexplained = [d for d in summary["pattern_disagreements"]
                   if not d["containment_degenerate"]]
    return 1 if (unexplained or any(r.holds_comm != _avoids_eight(r.A, r.B)
                                    for r in reports)) else 0


def _avoids_eight(A, B):
    """Whether the pair's word avoids the eight commutation obstructions as
    subsequences: one set contains the other, or the word over a (A only),
    b (B only) and c (both) fits a*b*a* or b*a*b* (see README)."""
    sa, sb = set(A), set(B)
    word = "".join("-abc"[(e in sa) + 2 * (e in sb)] for e in sorted(sa | sb))
    return sa <= sb or sb <= sa or re.fullmatch("a*b*a*|b*a*b*", word) is not None


def cmd_selftest(args) -> int:
    # every suite must make checks; the fundamental families start at arity 3
    for flag, least in (("n", 1), ("max_equiv_n", 1), ("fundamental_arity", 3)):
        if getattr(args, flag) < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be >= {least}")
    backends = [get_backend(name.strip()) for name in args.backends.split(",")]
    t_all = time.perf_counter()
    failures = []

    def run(label, thunk, key):
        t0 = time.perf_counter()
        reports = thunk()
        bad = [r for r in reports if not getattr(r, key)]
        status = "ok" if not bad else f"FAIL ({len(bad)})"
        print(f"  {label:<42} {len(reports):>4} checks  "
              f"{time.perf_counter()-t0:6.1f}s  {status}")
        failures.extend(bad)

    naxioms = _field_axiom_failures(args.seed)
    print(f"coefficient field axioms (seed={args.seed}): "
          f"{'ok' if not naxioms else f'FAIL ({naxioms})'}")
    if naxioms:
        failures.append("field-axioms")
    for backend in backends:
        print(f"[{backend.name}] selftest, seed={args.seed}")
        c = derive_empty_scalar(backend)
        ok = c == backend.casimir_counit
        print(f"  empty-set scalar derivation: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append("empty-scalar")
        hopf = _hopf_axiom_failures(backend, args.seed)
        print(f"  Hopf/comodule/straightening axioms: "
              f"{'ok' if not hopf else 'FAIL'}")
        failures.extend(hopf)
        run("rank-one relations",
            lambda: relations.run_batch(backend, [("star", A, B, 3) for A, B in
                     (((1, 2), (2, 3)), ((2, 3), (1, 3)), ((1, 3), (1, 2)))]),
            "holds_star")
        eq = _process_equivalence_reports(backend, args.max_equiv_n)
        print(f"  process equivalence n<={args.max_equiv_n}: "
              f"{'ok' if not eq else 'FAIL'}")
        failures.extend(eq)
        run(f"containment commutation n={args.n}",
            lambda: relations.suite_commute(args.n, backend), "holds_comm")
        run(f"quadruple-form standard relations n={args.n}",
            lambda: relations.suite_theorem_B(args.n, backend), "holds_star")
        run(f"fundamental families arity<={args.fundamental_arity}",
            lambda: relations.suite_fundamental(backend, args.fundamental_arity),
            "holds_star")
        named = relations.suite_named_lemmas(backend)
        run("named regressions",
            lambda: [r for r in named if r.holds_comm is not None], "holds_comm")
        run("named standard relations",
            lambda: [r for r in named if r.holds_star is not None], "holds_star")
        run("nested bracket identities",
            lambda: relations.q_identities_regression(backend), "holds_comm")
    print(f"selftest total {time.perf_counter()-t_all:.1f}s: "
          f"{'ALL OK' if not failures else f'{len(failures)} failures'}")
    return 0 if not failures else 1


def _process_equivalence_reports(backend, max_n):
    import itertools
    bad = []
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            for elems in itertools.combinations(range(1, n + 1), r):
                A = IndexSet(n, elems)
                ref = build(A, backend)
                processes = ["left", "derived"] + [f"mixed:{j}" for j in range(1, r + 1)]
                if any(build(A, backend, make_plan(A, p)) != ref for p in processes):
                    bad.append(("process-equivalence", elems, n))
    return bad


def _field_axiom_failures(seed):
    import random
    from .qcoeff import LaurentPoly, RatQ, ONE, ZERO
    rng = random.Random(seed)

    def rpoly():
        return LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5)
                            for _ in range(rng.randint(0, 3))})

    def rratq():
        num, den = rpoly(), rpoly()
        while den.is_zero():
            den = rpoly()
        return RatQ.make(num, den)

    bad = 0
    for _ in range(60):
        a, b, c = rratq(), rratq(), rratq()
        ok = ((a + b) + c == a + (b + c)
              and (a * b) * c == a * (b * c)
              and a * (b + c) == a * b + a * c
              and a - a == ZERO)
        if not a.is_zero():
            ok = ok and a * (ONE / a) == ONE
        bad += not ok
    return bad


def _hopf_axiom_failures(backend, seed):
    import random
    from .pbw import AlgElem, EdgeElem
    rng = random.Random(seed)
    bad = []

    def relem():
        if len(backend.field_names) == 3:
            exps = (rng.randint(0, 2), rng.randint(-2, 2), rng.randint(0, 2))
        else:
            exps = (rng.randint(0, 2), rng.randint(0, 2),
                    rng.randint(-2, 2), rng.randint(0, 1))
        return AlgElem.mono(backend, exps)

    cas = AlgElem.casimir(backend)
    for x in [relem() for _ in range(6)] + [cas]:
        d = x.coproduct(1)
        if d.coproduct(2) != d.coproduct(1) or d.counit(1) != x or d.counit(2) != x:
            bad.append(("hopf-axioms", backend.name))
    seed_elem = EdgeElem.casimir_delta(backend)
    if seed_elem.tau_r().finalize() != seed_elem.tau_l().finalize():
        bad.append(("cotensor", backend.name))
    for g in backend.alphabets["R"].letters:
        t = EdgeElem.letter(backend, "R", g).tau_r()
        if t.tau_r().finalize() != t.delta_mid(1).finalize():
            bad.append(("comodule-R", g))
    for g in backend.alphabets["L"].letters:
        t = EdgeElem.letter(backend, "L", g).tau_l()
        if t.tau_l().finalize() != t.delta_mid(2).finalize():
            bad.append(("comodule-L", g))
    for _ in range(25):
        a, b, c = relem(), relem(), relem()
        if (a * b) * c != a * (b * c):
            bad.append(("associativity", backend.name))
        if (a * b).coproduct(1) != a.coproduct(1) * b.coproduct(1):
            bad.append(("coproduct-morphism", backend.name))
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="awbi",
        description="exact verification workbench for tensor-power "
                    "Casimir generator algebras")
    sub = p.add_subparsers(dest="command", required=True)

    flag_help = {"--timing": "include timings in JSON output (breaks "
                             "byte-for-byte determinism)",
                 "--full": "include full element JSON / all terms"}

    def common(sp, *flags):
        sp.add_argument("--backend", choices=("aw", "bi"), default="aw")
        sp.add_argument("--output", choices=("human", "json"), default="human")
        for flag in flags:
            sp.add_argument(flag, action="store_true", help=flag_help[flag])

    sp = sub.add_parser("build", help="construct one generator")
    common(sp, "--full")
    sp.add_argument("--set", required=True, help='index set, e.g. "1,3-5,8"')
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--process", default="right",
                    help="right | left | mixed:J | derived")
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("check", help="check one relation")
    common(sp, "--timing", "--full")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--relation", choices=("star", "comm"), default="star")
    sp.add_argument("--numeric", action="store_true",
                    help="also evaluate in exact-rational representations")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("scan", help="classify every ordered pair of subsets")
    common(sp, "--timing")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-scan-n", type=int, default=4)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("selftest", help="run every verification suite")
    sp.add_argument("--n", type=int, default=3,
                    help="exhaustive suite arity")
    sp.add_argument("--max-equiv-n", type=int, default=3)
    sp.add_argument("--fundamental-arity", type=int, default=5)
    sp.add_argument("--backends", default="aw,bi")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_selftest)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`awbi scan ... | head`); point
        # stdout at devnull so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
