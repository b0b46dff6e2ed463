"""Acceptance suite: every exit criterion at its stated tolerance (exact
coefficient equality throughout) with its stated runtime bound.

One pass/fail line prints per criterion.  Criterion 8 checks the refined
minimality statement at n=3, n=4 and n=5: the pairs satisfying the standard
relation are exactly the separated-quadruple pattern pairs plus the
containment pairs (one set inside the other), where commutation and the
empty-set scalar collapse the relation to 0 = 0.  At n=3 the two sets
coincide literally; at n=4 the four interleaved containment pairs that fit
no quadruple are pinned and confirmed on exact rational matrices; at n=5
the 40 extras and the scan counts are pinned.
"""

import itertools
import random
import re
import time

import pytest

from awbi import osp_engine as osp
from awbi import uq_engine as uq
from awbi.extension import (IndexSet, build, derive_empty_scalar, generator,
                            plan_derived, plan_left, plan_mixed, plan_right)
from awbi.numoracle import (DEFAULT_POINTS, RepSpec, crosscheck_points,
                            evaluate, mat_add, mat_mul)
from awbi.pbw import AlgElem, EdgeElem, bracket_q
from awbi.relations import (check_comm, check_star, q_identities_regression,
                            scan, star_sides, suite_commute,
                            suite_fundamental, suite_named_lemmas,
                            suite_theorem_B)

AW, BI = uq.AW, osp.BI
BACKENDS = (AW, BI)


def _report(num, label, ok, elapsed, bound=None):
    status = "PASS" if ok else "FAIL"
    limit = f", bound {bound}s" if bound is not None else ""
    print(f"[criterion {num:>2}] {status}  {label}  ({elapsed:.2f}s{limit})")


def test_criterion_01_rank_one_relations():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        for A, B in (((1, 2), (2, 3)), ((2, 3), (1, 3)), ((1, 3), (1, 2))):
            ok &= check_star(A, B, 3, backend).holds_star
    elapsed = time.perf_counter() - t0
    _report(1, "rank-one relations, both backends", ok, elapsed, 5)
    assert ok
    assert elapsed < 5


def test_criterion_02_cotensor_property():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        seed = EdgeElem.casimir_delta(backend)
        ok &= seed.tau_r().finalize() == seed.tau_l().finalize()
    elapsed = time.perf_counter() - t0
    _report(2, "cotensor property, both backends", ok, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_criterion_03_process_equivalence():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        for r in range(1, 5):
            for elems in itertools.combinations(range(1, 5), r):
                A = IndexSet(4, elems)
                ref = build(A, backend, plan_right(A))
                ok &= build(A, backend, plan_left(A)) == ref
                for j in range(1, len(elems) + 1):
                    ok &= build(A, backend, plan_mixed(A, j)) == ref
                if len(A.intervals()) <= 2:
                    ok &= build(A, backend, plan_derived(A)) == ref
        A9 = IndexSet(9, (2, 4, 5, 8))
        ref = build(A9, backend, plan_right(A9))
        ok &= build(A9, backend, plan_left(A9)) == ref
        ok &= build(A9, backend, plan_mixed(A9, 2)) == ref
    elapsed = time.perf_counter() - t0
    _report(3, "process equivalence on [1;4] plus the 9-leg example",
            ok, elapsed, 600)
    assert ok
    assert elapsed < 600


CURATED_N5_CONTAINMENT = (
    ((1, 2, 3, 4, 5), (1, 3, 5)), ((1, 2, 3, 4, 5), (2, 4)),
    ((1, 2, 3, 4, 5), (1, 2, 4)), ((1, 2, 4, 5), (2, 4)),
    ((1, 2, 4, 5), (1, 5)), ((1, 3, 5), (1, 5)), ((1, 3, 5), (3,)),
    ((1, 2, 3, 5), (2, 5)), ((2, 3, 4, 5), (3, 5)),
    ((1, 2, 4, 5), (1, 2, 4, 5)),
)


def test_criterion_04_containment_commutation():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        reports = suite_commute(4, backend) + [
            check_comm(A, B, 5, backend) for A, B in CURATED_N5_CONTAINMENT]
        ok &= all(r.holds_comm for r in reports)
        ok &= len(reports) == 81 + 10
    elapsed = time.perf_counter() - t0
    _report(4, "containment commutation on [1;4] + 10 curated pairs at n=5",
            ok, elapsed, 900)
    assert ok
    assert elapsed < 900


def test_criterion_05_quadruple_standard_relations():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        reports = suite_theorem_B(4, backend)
        ok &= all(r.holds_star for r in reports)
    elapsed = time.perf_counter() - t0
    _report(5, "standard relation on all quadruple forms in [1;4]",
            ok, elapsed, 1200)
    assert ok
    assert elapsed < 1200


def test_criterion_06_fundamental_families():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        reports = suite_fundamental(backend, arity_limit=7)
        ok &= all(r.holds_star for r in reports)
        ok &= len(reports) == 27
    elapsed = time.perf_counter() - t0
    _report(6, "nine fundamental families, arity <= 7", ok, elapsed, 1800)
    assert ok
    assert elapsed < 1800


def test_criterion_07_named_regressions():
    t0 = time.perf_counter()
    ok = True
    for backend in BACKENDS:
        for r in suite_named_lemmas(backend):
            ok &= (r.holds_comm if r.holds_comm is not None else r.holds_star)
        ok &= all(r.holds_comm for r in q_identities_regression(backend))
    elapsed = time.perf_counter() - t0
    _report(7, "named regression relations and bracket identities",
            ok, elapsed)
    assert ok


# interleaved containment pairs in [1;4]: the relation holds, no quadruple fits
N4_CONTAINMENT_EXTRAS = frozenset({
    ((1, 3), (1, 2, 3, 4)), ((1, 2, 3, 4), (1, 3)),
    ((2, 4), (1, 2, 3, 4)), ((1, 2, 3, 4), (2, 4)),
})


def _is_containment(A, B):
    return set(A) <= set(B) or set(B) <= set(A)


# (holds_star, holds_comm) of every pair of scan(n), by (backend name, n):
# criterion 8's aw scans are kept here for the obstruction test
_VERDICTS = {}


def _keep_verdicts(reports, n, backend):
    _VERDICTS[backend.name, n] = {(r.A, r.B): (r.holds_star, r.holds_comm)
                                  for r in reports}


def _minimality_scan(n, bound, literal=False):
    """Scan all 4^n ordered pairs at n on aw and check, from the per-pair
    reports, that the relation set is the pattern set plus the containment
    pairs and that every containment pair commutes.  With ``literal`` the
    relation set must also equal the pattern set.  Returns both sets."""
    t0 = time.perf_counter()
    reports, summary = scan(n, AW)
    elapsed = time.perf_counter() - t0
    _keep_verdicts(reports, n, AW)
    star_set = {(r.A, r.B) for r in reports if r.holds_star}
    predicted = {(r.A, r.B) for r in reports if r.pattern_predicted}
    containment = {(r.A, r.B) for r in reports if _is_containment(r.A, r.B)}
    non_commuting = {(r.A, r.B) for r in reports
                     if (r.A, r.B) in containment and not r.holds_comm}
    ok = (summary["pairs"] == len(reports) == 4 ** n
          and predicted <= star_set
          and star_set == predicted | containment
          and not non_commuting
          and (star_set == predicted or not literal))
    label = ("relation set == pattern set == pattern | containment" if literal
             else "relation set == pattern | containment")
    _report(8, f"minimality scan n={n}: {label}", ok, elapsed, bound)
    assert elapsed < bound
    assert summary["pairs"] == len(reports) == 4 ** n
    assert predicted <= star_set, (
        f"pattern predicted failing pairs: {sorted(predicted - star_set)}")
    assert star_set == predicted | containment, (
        f"outside pattern | containment: {sorted(star_set - predicted - containment)}; "
        f"containment pairs failing the relation: {sorted(containment - star_set)}")
    assert not non_commuting, (
        f"containment pairs that do not commute: {sorted(non_commuting)}")
    if literal:
        assert star_set == predicted
    return star_set, predicted, summary


def _star_matrices_equal(A, B, n, v):
    """Both sides of the standard relation for (A, B) as exact rational
    matrices on spin-1/2 legs at q^(1/2) = v.  Each set-indexed generator is
    evaluated on its own and every product is a matrix product, so no
    product of generators passes through the engine's normal forms."""
    spec = RepSpec((2,) * n, v)
    w, s, plus, minus = (c.evaluate(v) for c in AW.relation)
    sa, sb = set(A), set(B)
    inter, union, sym, amb, bma = (tuple(sorted(x)) for x in
                                   (sa & sb, sa | sb, sa ^ sb, sa - sb, sb - sa))
    mats = {S: evaluate(generator(AW, n, S), spec)
            for S in {A, B, inter, union, sym, amb, bma}}
    lhs = mat_add(mat_mul(mats[A], mats[B]), mat_mul(mats[B], mats[A]),
                  plus, minus)
    rhs = mat_add(mats[sym], mat_add(mat_mul(mats[inter], mats[union]),
                                     mat_mul(mats[amb], mats[bma])), w, s)
    return lhs == rhs


def test_criterion_08_minimality_scan_n3():
    _minimality_scan(3, 60, literal=True)


def test_criterion_08_minimality_scan_n4():
    star_set, predicted, _ = _minimality_scan(4, 3600)
    extras = star_set - predicted
    print("FINDING: pairs satisfying the standard relation without a "
          "separated-quadruple decomposition:")
    for A, B in sorted(extras):
        print(f"  A={list(A)} B={list(B)}")
    print("Each is a containment pair whose elements interleave, so no "
          "quadruple fits.  Containment gives G_A G_B = G_B G_A, and with "
          "the empty-set scalar (q-q^-1)(q+q^-1) = q^2-q^-2 both sides of "
          "the standard relation agree (0 = 0 after cancellation).  The "
          "extras are confirmed below on exact rational matrices.")
    assert extras == N4_CONTAINMENT_EXTRAS
    t0 = time.perf_counter()
    for A, B in sorted(extras):
        for v in DEFAULT_POINTS:
            assert _star_matrices_equal(A, B, 4, v), (A, B, v)
    # negative control: a pair where the relation fails must differ
    for v in DEFAULT_POINTS:
        assert not _star_matrices_equal((1, 2), (1, 3), 3, v)
    _report(8, "n=4 extras confirmed on 16x16 matrices + control", True,
            time.perf_counter() - t0)


def test_criterion_08_minimality_scan_n5():
    star_set, predicted, summary = _minimality_scan(5, 3600)
    extras = star_set - predicted
    print(f"FINDING: {len(extras)} containment pairs at n=5 satisfy the "
          "standard relation without a separated-quadruple decomposition.")
    assert len(extras) == 40
    assert all(_is_containment(A, B) for A, B in extras)
    assert (summary["star_holds"], summary["comm_holds"],
            summary["pattern_predicted"]) == (734, 614, 694)
    assert len(star_set) == 734 and len(predicted) == 694


# the minimal failing words of a pair over a (A only), b (B only) and c
# (both), legs in neither dropped (ROADMAP item 1)
STAR_OBSTRUCTIONS = ("abc", "bca", "cab", "abab", "baba")
COMM_OBSTRUCTIONS = STAR_OBSTRUCTIONS + ("acb", "bac", "cba")


def _avoids(word, obstructions):
    """No obstruction occurs in word as a subsequence."""
    return not any(re.search(".*".join(p), word) for p in obstructions)


@pytest.mark.parametrize("backend", BACKENDS, ids=("aw", "bi"))
def test_scan_verdicts_are_obstruction_avoidance(backend):
    # scan(n) for n <= 5: the standard relation holds exactly when the
    # pair's word avoids the five standard obstructions, commutation
    # exactly when it avoids all eight; criterion 8's aw scans are reused
    for n in range(1, 6):
        if (backend.name, n) not in _VERDICTS:
            _keep_verdicts(scan(n, backend)[0], n, backend)
        verdicts = _VERDICTS[backend.name, n]
        assert len(verdicts) == 4 ** n
        for (A, B), (star, comm) in verdicts.items():
            word = "".join("abc"[(i in B) + (i in A and i in B)] for i in range(1, n + 1)
                           if i in A or i in B)
            assert star == _avoids(word, STAR_OBSTRUCTIONS), (n, A, B, word)
            assert comm == _avoids(word, COMM_OBSTRUCTIONS), (n, A, B, word)


def test_criterion_09_hopf_comodule_axioms():
    t0 = time.perf_counter()
    ok = True
    for backend, gens in (
            (AW, ((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0))),   # E F K Ki
            (BI, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0),        # A+ A- K
                  (0, 0, -1, 0), (0, 0, 0, 1)))):                    # Ki P
        cas = AlgElem.casimir(backend)
        elems = [AlgElem.mono(backend, g) for g in gens] + [cas]
        for x in elems:
            d = x.coproduct(1)
            ok &= d.coproduct(2) == d.coproduct(1)          # coassociativity
            ok &= d.counit(1) == x and d.counit(2) == x     # counit laws
        # the coproduct respects the hardest defining relation
        if backend is AW:
            E, F, K, Ki = elems[:4]
            lhs_rel = E * F - F * E
            rhs_rel = (K - Ki).scale(uq.DINV)
        else:
            Ap, Am, K, Ki, _P = elems[:5]
            lhs_rel = Ap * Am + Am * Ap
            rhs_rel = (K * K - Ki * Ki).scale(osp.SINV)
        ok &= lhs_rel == rhs_rel
        ok &= lhs_rel.coproduct(1) == rhs_rel.coproduct(1)
        # comodule axioms on every alphabet letter
        for g in backend.alphabets["R"].letters:
            t = EdgeElem.letter(backend, "R", g).tau_r()
            ok &= t.tau_r().finalize() == t.delta_mid(1).finalize()
            ok &= (t.counit_mid(1).finalize()
                   == EdgeElem.letter(backend, "R", g).finalize())
        for g in backend.alphabets["L"].letters:
            t = EdgeElem.letter(backend, "L", g).tau_l()
            ok &= t.tau_l().finalize() == t.delta_mid(2).finalize()
            ok &= (t.counit_mid(2).finalize()
                   == EdgeElem.letter(backend, "L", g).finalize())
        # Casimir centrality
        for x in elems[:-1]:
            ok &= (cas * x - x * cas).is_zero()
    elapsed = time.perf_counter() - t0
    _report(9, "Hopf and comodule axiom suite, both backends", ok, elapsed)
    assert ok


def _identity_pool_n3():
    """(label, lhs, rhs) pairs drawn from the n<=3 parts of criteria 1-7:
    rank-one and quadruple-form standard relations, containment
    commutators, process equivalences, the cotensor identity, and nested
    bracket exchanges."""
    pool = []
    for A, B in (((1, 2), (2, 3)), ((2, 3), (1, 3)), ((1, 3), (1, 2))):
        lhs, rhs = star_sides(A, B, 3, AW)
        pool.append((f"rank-one {A}|{B}", lhs, rhs))
    for A, B in (((1, 2), (2,)), ((2,), (1, 3)), ((1, 2, 3), (2, 3)),
                 ((1,), (2, 3)), ((1, 3), (3,))):
        lhs, rhs = star_sides(A, B, 3, AW)
        pool.append((f"standard {A}|{B}", lhs, rhs))
    for A in (((1, 2, 3)), ((1, 3)), ((2, 3))):
        for r in range(len(A) + 1):
            for B in itertools.combinations(A, r):
                x = generator(AW, 3, tuple(A))
                y = generator(AW, 3, B)
                pool.append((f"comm {A}|{B}", x * y, y * x))
    for elems in ((1, 2), (1, 3), (2, 3), (1, 2, 3), (2,)):
        A = IndexSet(3, elems)
        pool.append((f"process {elems}",
                     build(A, AW, plan_right(A)), build(A, AW, plan_left(A))))
    seed = EdgeElem.casimir_delta(AW)
    pool.append(("cotensor", seed.tau_r().finalize().pad(0, 0),
                 seed.tau_l().finalize()))
    # nested bracket exchange with a central first argument
    a, c, d = generator(AW, 3, (1,)), generator(AW, 3, (1, 2)), generator(AW, 3, (2, 3))
    qc = (uq.Q1, -uq.QI)
    pool.append(("exchange", bracket_q(a, bracket_q(c, d, *qc), *qc),
                 bracket_q(bracket_q(a, c, *qc), d, *qc)))
    return pool


def test_criterion_10_numeric_concordance():
    t0 = time.perf_counter()
    pool = _identity_pool_n3()
    rng = random.Random(2024)
    sample = rng.sample(pool, 20)
    ok = True
    for label, lhs, rhs in sample:
        ok &= crosscheck_points(lhs, rhs, (2,) * lhs.arity)
    # negative control: a coefficient perturbation must be detected
    label, lhs, rhs = pool[0]
    ok &= not crosscheck_points(lhs + AlgElem.one(AW, lhs.arity), rhs,
                                (2,) * lhs.arity)
    elapsed = time.perf_counter() - t0
    _report(10, "numeric concordance on 20 sampled identities + control",
            ok, elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_11_empty_set_constants():
    t0 = time.perf_counter()
    c_bi = derive_empty_scalar(BI)
    c_aw = derive_empty_scalar(AW)
    ok = (c_bi == BI.casimir_counit) and (c_aw == uq.QP)
    # and the derived constant really closes the disjoint standard relation
    ok &= check_star((1,), (2,), 2, BI).holds_star
    ok &= check_star((1,), (2,), 2, AW).holds_star
    elapsed = time.perf_counter() - t0
    _report(11, "empty-set scalars: derived == frozen, both backends",
            ok, elapsed)
    assert ok
