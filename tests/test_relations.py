"""Relation checks, the pattern decider, suites, and the scanner."""

import itertools
import re
import time

from awbi import osp_engine as osp
from awbi import uq_engine as uq
import pytest

from awbi.relations import (check_comm, check_star, fundamental_families,
                            predict_pattern, q_identities_regression, scan,
                            subsets, suite_commute, suite_fundamental,
                            suite_named_lemmas, suite_theorem_B,
                            EXPLICIT_COMM_PAIRS)

AW, BI = uq.AW, osp.BI


def quadruples(n):
    """All ordered quadruples of separated (possibly empty) subsets of [1;n]:
    a subset of [1;n] cut into four consecutive blocks."""
    for S in subsets(n):
        for c1 in range(len(S) + 1):
            for c2 in range(c1, len(S) + 1):
                for c3 in range(c2, len(S) + 1):
                    yield S[:c1], S[c1:c2], S[c2:c3], S[c3:]


def theorem_pairs(n):
    """The reference for predict_pattern: the deduplicated (A, B) pairs
    that the three admissible forms generate from the quadruples, each
    with the first (form, quadruple) that generates it."""
    seen = {}
    for a1, a2, a3, a4 in quadruples(n):
        forms = (
            (tuple(sorted(a1 + a2 + a4)), tuple(sorted(a2 + a3))),
            (tuple(sorted(a2 + a3)), tuple(sorted(a1 + a3 + a4))),
            (tuple(sorted(a1 + a3 + a4)), tuple(sorted(a1 + a2 + a4))),
        )
        for i, pair in enumerate(forms):
            seen.setdefault(pair, (i + 1, (a1, a2, a3, a4)))
    return seen


def test_rank_one_relations():
    for backend in (AW, BI):
        assert check_star((1, 2), (2, 3), 3, backend).holds_star
        assert check_star((2, 3), (1, 3), 3, backend).holds_star
        assert check_star((1, 3), (1, 2), 3, backend).holds_star


def test_reversed_rank_one_fails_with_residual():
    rep = check_star((1, 2), (1, 3), 3, AW)
    assert not rep.holds_star
    assert rep.residual_star.term_count() > 0


def test_check_comm_examples():
    assert check_comm((1, 2, 3), (1, 3), 3, AW).holds_comm
    assert check_comm((1, 2), (1, 2), 2, AW).holds_comm
    assert check_comm((2, 4), (1, 5), 5, AW).holds_comm
    assert check_comm((1, 2, 3), (2,), 3, AW).holds_comm


def test_comm_symmetry():
    for A, B in (((1, 2), (2, 3)), ((1, 3), (1, 2, 3))):
        assert (check_comm(A, B, 3, AW).holds_comm
                == check_comm(B, A, 3, AW).holds_comm)


def test_predict_pattern_examples():
    ok, wit = predict_pattern((1, 2), (2, 3))
    assert ok and wit[0] == 1 and wit[1] == ((1,), (2,), (3,), ())
    ok, _ = predict_pattern((1, 2), (1, 3))
    assert not ok
    ok, wit = predict_pattern((2,), (1, 3))
    assert ok and wit[0] == 2
    # empty sets are always admissible on either side
    assert predict_pattern((), ())[0]
    assert predict_pattern((1, 3), ())[0]
    assert predict_pattern((1, 2), (1, 2))[0]


def test_star_empty_set_degenerations():
    for backend in (AW, BI):
        assert check_star((), (), 2, backend).holds_star
        assert check_star((1, 2), (), 2, backend).holds_star
        assert check_star((), (1,), 2, backend).holds_star
        assert check_star((1, 2), (1, 2), 2, backend).holds_star


def test_suite_commute_counts_and_passes():
    reports = suite_commute(3, AW)
    assert len(reports) == 27
    assert all(r.holds_comm for r in reports)
    reports = suite_commute(2, BI)
    assert len(reports) == 9
    assert all(r.holds_comm for r in reports)


def test_theorem_pairs_contains_rank_one():
    pairs = theorem_pairs(3)
    assert ((1, 2), (2, 3)) in pairs
    assert ((2, 3), (1, 3)) in pairs
    assert ((1, 3), (1, 2)) in pairs
    assert ((1, 2), (1, 3)) not in pairs


def test_theorem_pairs_match_predict_pattern():
    # the pairs the quadruple forms generate are the pairs the scan's
    # decider accepts, and each accepted pair's witness is a separated
    # quadruple whose form gives the pair back
    unions = {1: ((0, 1, 3), (1, 2)), 2: ((1, 2), (0, 2, 3)),
              3: ((0, 2, 3), (0, 1, 3))}      # per form, the parts of A and B
    for n, count in ((1, 4), (2, 16), (3, 61), (4, 214), (5, 694)):
        accepted = set()
        for A in subsets(n):
            for B in subsets(n):
                ok, witness = predict_pattern(A, B)
                if not ok:
                    assert witness is None
                    continue
                accepted.add((A, B))
                form, parts = witness
                flat = sum(parts, ())
                assert list(flat) == sorted(set(flat)), (A, B, witness)
                for got, union in zip((A, B), unions[form]):
                    assert tuple(sorted(sum((parts[i] for i in union), ()))) == got
        assert set(theorem_pairs(n)) == accepted, n
        assert len(accepted) == count, n


def test_obstruction_words_up_to_length_10():
    # the combinatorial half of the all-n minimality claim, over every
    # a/b/c word of length at most 10 (88 573 words): a (A only), b (B
    # only) and c (both) at consecutive legs; containment means no a or
    # no b.  A word avoids the five standard-relation obstructions as
    # subsequences exactly when the pattern decider accepts it or it is a
    # containment word, and the eight commutation obstructions exactly
    # when it is a containment word or fits a*b*a* or b*a*b*.
    five = ("abc", "bca", "cab", "abab", "baba")
    eight = five + ("acb", "bac", "cba")
    # a word contains p as a subsequence when it matches p's letters with
    # anything in between
    as_subsequence = {p: re.compile(".*".join(p)) for p in eight}
    nested = re.compile("a*b*a*|b*a*b*")

    words = 0
    for length in range(11):
        for letters in itertools.product("abc", repeat=length):
            word = "".join(letters)
            A = tuple(i for i, x in enumerate(word, 1) if x != "b")
            B = tuple(i for i, x in enumerate(word, 1) if x != "a")
            containment = "a" not in word or "b" not in word
            hits = {p for p in eight if as_subsequence[p].search(word)}
            assert (not hits & set(five)) == (predict_pattern(A, B)[0] or containment), word
            assert (not hits) == (containment or bool(nested.fullmatch(word))), word
            words += 1
    assert words == 88573


def test_suite_theorem_B_n3():
    for backend in (AW, BI):
        reports = suite_theorem_B(3, backend)
        assert all(r.holds_star for r in reports)
    # the decider's pairs, in sorted order, each labelled with its witness
    assert [(r.A, r.B) for r in reports] == sorted(theorem_pairs(3))
    for r in reports:
        assert (True, r.witness) == predict_pattern(r.A, r.B)
        assert r.label == f"quadruple-form-{r.witness[0]}"


def test_non_integer_index_is_rejected():
    # 1.5 matches no leg; it must not be read as the pair ((), (2,))
    with pytest.raises(ValueError, match="1.5"):
        check_star((1.5,), (2,), 3, AW)


def test_quadruple_form_example_n4():
    # quadruple ({1},{2},{3},{4}), first form: A = {1,2,4}, B = {2,3}
    pairs = theorem_pairs(4)
    assert ((1, 2, 4), (2, 3)) in pairs
    assert check_star((1, 2, 4), (2, 3), 4, AW).holds_star


def test_fundamental_families_instances():
    fams = {(name, k, ell): (A, B, n)
            for name, k, ell, A, B, n in fundamental_families(7)}
    assert fams[("C1", 1, None)] == ((1, 2), (2, 3), 3)
    assert fams[("C2", 1, None)] == ((2, 3), (1, 3), 3)
    assert fams[("C4'", 1, 0)] == ((1, 2, 5), (2, 4), 5)
    assert fams[("C6", 1, 0)] == ((1, 3, 4), (1, 2, 4), 4)
    # arity bound respected
    assert all(n <= 7 for (_, _, n) in fams.values())


def test_suite_fundamental_small():
    for backend in (AW, BI):
        reports = suite_fundamental(backend, arity_limit=5)
        assert reports and all(r.holds_star for r in reports)


def test_named_lemmas_pass_small():
    reports = suite_named_lemmas(AW)
    for r in reports:
        ok = r.holds_comm if r.holds_comm is not None else r.holds_star
        assert ok, (r.label, r.A, r.B)


def test_explicit_comm_list_entries():
    assert len(EXPLICIT_COMM_PAIRS) == 15
    assert check_comm((1, 3, 4), (1, 3), 4, AW).holds_comm
    assert check_comm((1, 2, 3, 5, 6, 7), (2, 6), 7, AW).holds_comm


def test_q_identities():
    for backend in (AW, BI):
        reports = q_identities_regression(backend)
        assert len(reports) == 8
        assert all(r.holds_comm for r in reports)


def test_scan_n2():
    reports, summary = scan(2, AW)
    assert summary["pairs"] == 16
    assert summary["star_holds"] == 16
    assert summary["pattern_predicted"] == 16
    assert not summary["pattern_disagreements"]
    assert not summary["containment_comm_failures"]
    by_pair = {(r.A, r.B): r for r in reports}
    assert by_pair[((1,), (2,))].holds_star
    assert by_pair[((1,), (2,))].pattern_predicted


def test_scan_n3_agreement():
    for backend in (AW, BI):
        reports, summary = scan(3, backend)
        assert summary["pairs"] == 64
        assert summary["star_holds"] == 61
        assert not summary["pattern_disagreements"]
        assert not summary["containment_comm_failures"]
        star_set = {(r.A, r.B) for r in reports if r.holds_star}
        predicted = {(r.A, r.B) for r in reports if r.pattern_predicted}
        assert star_set == predicted


def test_scan_residuals_recomputed_not_shortcircuited():
    rep = check_star((1, 2), (1, 3), 3, AW)
    assert rep.holds_star == rep.residual_star.is_zero()
    rep2 = check_star((1, 2), (2, 3), 3, AW)
    assert rep2.holds_star and rep2.residual_star.is_zero()


def test_report_json():
    rep = check_star((1, 2), (2, 3), 3, AW)
    rep.pattern_predicted, rep.witness = predict_pattern(rep.A, rep.B)
    obj = rep.to_json()
    assert obj["holds_star"] and obj["residual_star_terms"] == 0
    assert obj["pattern_predicted"]
    assert "elapsed_ms" not in obj
    obj = rep.to_json(include_timing=True)
    assert "elapsed_ms" in obj


def test_backend_parallelism_same_verdicts_n3():
    # the two families are isomorphic algebras: verdicts must agree
    # pair for pair, and any split would be a first-class finding
    r_aw, _ = scan(3, AW)
    r_bi, _ = scan(3, BI)
    split = [(a.A, a.B) for a, b in zip(r_aw, r_bi)
             if (a.holds_star, a.holds_comm) != (b.holds_star, b.holds_comm)]
    assert split == []


def test_scan_parallel_workers_match_serial():
    # five workers at n=2: more workers than cores, and one with no row
    for n, workers in ((3, 2), (2, 5)):
        serial, s1 = scan(n, AW, workers=1)
        parallel, s2 = scan(n, AW, workers=workers)
        assert [(r.A, r.B, r.holds_star, r.holds_comm, r.pattern_predicted)
                for r in serial] == \
               [(r.A, r.B, r.holds_star, r.holds_comm, r.pattern_predicted)
                for r in parallel]
        assert s1["star_holds"] == s2["star_holds"]


def test_scan_with_workers_streams_every_report_in_pair_order():
    seen = []
    reports, _ = scan(3, AW, workers=2, progress=seen.append)
    assert seen == reports
    assert [(r.A, r.B) for r in seen] == \
           [(A, B) for A in subsets(3) for B in subsets(3)]


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_scan_counts_equal_published_residuals(backend, workers):
    # the scan decides and counts in the lattice and keeps no residual;
    # check_star/check_comm convert the residual to the published basis
    reports, _ = scan(3, backend, workers=workers)
    assert len(reports) == 64
    for r in reports:
        assert r.residual_star is None and r.residual_comm is None
        star = check_star(r.A, r.B, 3, backend).residual_star
        comm = check_comm(r.A, r.B, 3, backend).residual_comm
        assert (r.holds_star, r.residual_star_terms) == \
               (star.is_zero(), star.term_count()), (r.A, r.B)
        assert (r.holds_comm, r.residual_comm_terms) == \
               (comm.is_zero(), comm.term_count()), (r.A, r.B)


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_mirror_pair_has_equal_verdicts_and_commutator_count(backend):
    # (A, B) and (rev B, rev A), rev(i) = n + 1 - i: both verdicts and the
    # commutator's term count agree.  The standard relation's counts need
    # not (8 pairs at n=5 differ).
    for n in range(1, 5):
        reports, _ = scan(n, backend)
        by_pair = {(r.A, r.B): r for r in reports}

        def rev(S):
            return tuple(sorted(n + 1 - i for i in S))

        for (A, B), r in by_pair.items():
            m = by_pair[rev(B), rev(A)]
            assert (r.holds_star, r.holds_comm, r.residual_comm_terms) == \
                   (m.holds_star, m.holds_comm, m.residual_comm_terms), (n, A, B)


class _LoggedDict(dict):
    """A dict that records the key of every get, and with writes also of
    every item set."""

    def __init__(self, log, writes=False):
        super().__init__()
        self.log, self.writes = log, writes

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        if self.writes:
            self.log.append(key)
        super().__setitem__(key, value)


def grouped_pairs(n):
    """The scan's run order, built here from its description: row A checks
    (A, B) and then (B, A), for each B from A onward in subset order."""
    sets = list(subsets(n))
    return [("pair", *pair) + (n,) for i, A in enumerate(sets) for B in sets[i:]
            for pair in dict.fromkeys(((A, B), (B, A)))]


def planned_peak(backend, checks):
    """The most products live at once when the checks run in order and each
    key is freed after its last reader, from the planner's list of reads.
    Product keys have four fields, verdict keys two."""
    from awbi import relations
    reads = list(relations._check_reads(backend, checks))
    last = {key: i for i, keys in enumerate(reads) for key in keys}
    live, peak = set(), 0
    for i, keys in enumerate(reads):
        for key in keys:
            live.add(key)
            peak = max(peak, sum(len(k) == 4 for k in live))
        live -= {key for key in keys if last[key] == i}
    return peak


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_scan_frees_each_product_and_residual_after_its_last_reader(backend, monkeypatch):
    from awbi import relations
    relations.clear_caches()
    n = 4
    pairs = grouped_pairs(n)
    planned = list(relations._check_reads(backend, pairs))
    reads, misses, per_pair, live, products = [], [], [], [], set()
    prod, scan_pair = relations._prod, relations._scan_pair

    def logged_prod(b, m, ea, eb):
        key = relations._prod_key(b, m, ea, eb)
        reads.append(key)
        products.add(key)
        if key not in relations._PROD_CACHE:
            misses.append(key)
        return prod(b, m, ea, eb)

    def logged_pair(*args):
        rep = scan_pair(*args)
        per_pair.append(reads[:])
        reads.clear()
        live.append(len(relations._PROD_CACHE))
        return rep

    monkeypatch.setattr(relations, "_prod", logged_prod)
    monkeypatch.setattr(relations, "_scan_pair", logged_pair)
    monkeypatch.setattr(relations, "_VERDICTS", _LoggedDict(reads))
    scan(n, backend)
    # the planner lists each pair's reads, verdicts and products, in the
    # order the pairs run
    assert per_pair == planned
    # each product is made once
    assert len(misses) == len(set(misses)) == len(products) == 150
    # nothing the scan read is left, and the cache never held all of it
    assert not relations._PROD_CACHE and not relations._VERDICTS
    assert max(live) < len(products)


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_scan_runs_each_pair_next_to_its_transpose_and_streams_in_pair_order(backend, monkeypatch):
    # a product of (A, B) is read again by (B, A); running the two next to
    # each other lets it die young, so fewer products are live at the peak
    from awbi import relations
    relations.clear_caches()
    n = 4
    in_pair_order = [("pair", A, B, n) for A in subsets(n) for B in subsets(n)]
    grouped = planned_peak(backend, grouped_pairs(n))
    assert grouped < planned_peak(backend, in_pair_order)
    made, sizes = [], []
    prod = relations._prod

    def logged_prod(b, m, ea, eb):
        key = relations._prod_key(b, m, ea, eb)
        if key not in relations._PROD_CACHE:
            made.append(key)
        p = prod(b, m, ea, eb)
        sizes.append(len(relations._PROD_CACHE))
        return p

    monkeypatch.setattr(relations, "_prod", logged_prod)
    seen = []
    serial, _ = scan(n, backend, progress=lambda rep: seen.append((rep.A, rep.B)))
    assert len(made) == len(set(made)) == 150
    assert max(sizes) == grouped
    assert seen == [pair[1:3] for pair in in_pair_order]
    parallel, _ = scan(n, backend, workers=2)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_each_parallel_worker_plans_only_its_own_rows(backend, monkeypatch):
    # worker w of two runs rows w, w + 2, ... as one batch; a plan over both
    # workers' rows would keep, after a check, keys that only the other
    # worker reads later
    from awbi import relations
    relations.clear_caches()
    n = 4
    sets, rows = list(subsets(n)), relations._scan_rows(n)
    reads, made, reports = [], [], {}
    prod = relations._prod

    def logged_prod(b, m, ea, eb):
        key = relations._prod_key(b, m, ea, eb)
        reads.append(key)
        if key not in relations._PROD_CACHE:
            made.append(key)
        return prod(b, m, ea, eb)

    monkeypatch.setattr(relations, "_prod", logged_prod)
    # a verdict is made, for every schedule its key is read with, at the
    # key's first reader, so the log holds the verdicts set as well as read
    monkeypatch.setattr(relations, "_VERDICTS", _LoggedDict(reads, writes=True))
    for w in (0, 1):
        made.clear()
        per_check, live = [], []
        for rep in relations._batch(backend, list(itertools.chain(*rows[w::2]))):
            reports[rep.A, rep.B] = rep
            per_check.append(set(reads))
            reads.clear()
            live.append(set(relations._PROD_CACHE) | set(relations._VERDICTS))
        assert made and len(made) == len(set(made))
        # after each check the caches hold exactly the keys it or an earlier
        # check read or made that a later check of the same worker reads
        for i, keys in enumerate(live):
            assert keys == set().union(*per_check[:i + 1]) & set().union(*per_check[i + 1:]), (w, i)
        assert cache_sizes() == dict.fromkeys(_CACHES, 0)
    assert [reports[A, B].to_json() for A in sets for B in sets] == \
           [r.to_json() for r in scan(n, backend)[0]]


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_scan_keeps_no_residual_past_its_check(backend, monkeypatch):
    # a scan check keeps only verdicts: after each check the relation
    # caches hold no lattice element but products, and no residual,
    # compressed or lifted, is referenced from anywhere
    import sys
    from awbi import relations
    from awbi.pbw import AlgElem
    relations.clear_caches()
    formed, checks = [], []
    lincomb, widened, scan_pair = relations.lincomb, relations._widened, relations._scan_pair

    def held(x):
        if isinstance(x, AlgElem):
            return True
        values = x.values() if isinstance(x, dict) else x if isinstance(x, (list, tuple)) else ()
        return any(map(held, values))

    def logged(fn):
        def call(*args):
            formed.append(fn(*args))
            return formed[-1]
        return call

    def logged_pair(*args):
        rep = scan_pair(*args)
        caches = {name: value for name, value in vars(relations).items()
                  if isinstance(value, dict) and name != "_PROD_CACHE"}
        assert "_VERDICTS" in caches and not held(list(caches.values()))
        assert all(type(zero) is bool and count >= 0 and zero == (count == 0)
                   for zero, count in relations._VERDICTS.values())
        # each is referenced as often as a control that only this list holds
        # (a lift along all-ones runs returns the residual itself)
        elements = list({id(x): x for x in formed}.values()) + [object()]
        formed.clear()
        assert len(set(map(sys.getrefcount, elements))) == 1
        checks.append(len(elements) - 1)
        return rep

    monkeypatch.setattr(relations, "lincomb", logged(lincomb))
    monkeypatch.setattr(relations, "_widened", logged(widened))
    monkeypatch.setattr(relations, "_scan_pair", logged_pair)
    scan(4, backend)
    assert len(checks) == 256 and sum(checks) > 0


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_scan_lifts_each_residual_once_per_schedule(backend, monkeypatch):
    # the first reader of a compressed residual forms it and lifts it for
    # every schedule the scan reads it with; a transposed pair's commutator
    # shares the verdict, and a zero residual is not lifted
    from awbi import relations
    relations.clear_caches()
    reads, made, lifts, forms = [], {}, [], []
    widened, lincomb = relations._widened, relations.lincomb

    class Verdicts(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

        def __setitem__(self, key, value):
            assert key not in made
            made[key] = value
            super().__setitem__(key, value)

    def logged_widened(r, runs):
        lifts.append(runs)
        return widened(r, runs)

    def logged_lincomb(parts):
        forms.append(parts)
        return lincomb(parts)

    monkeypatch.setattr(relations, "_VERDICTS", Verdicts())
    monkeypatch.setattr(relations, "_widened", logged_widened)
    monkeypatch.setattr(relations, "lincomb", logged_lincomb)
    reports, _ = scan(4, backend)
    assert len(reads) == 2 * len(reports) == 512
    assert set(made) == set(reads)
    assert len(forms) == len({key for key, _ in made}) < len(made)
    nonzero = [key for key in reads if not made[key][0]]
    assert len(lifts) == len(set(nonzero)) < len(nonzero)
    assert all(A <= B for (_, relation, _, A, B), _ in made if relation == "comm")
    for rep in reports:
        assert (rep.holds_comm, rep.residual_comm_terms) == \
               (check_comm(rep.B, rep.A, 4, backend).holds_comm,
                check_comm(rep.A, rep.B, 4, backend).residual_comm_terms)


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_run_batch_mixing_kept_residuals_and_verdicts_equals_single_checks(backend):
    # the first three pairs compress to ((1, 2), (1, 3)) at arity 3, with
    # three widening schedules; the last holds the standard relation.  Each
    # "star" and "comm" check keeps its residual, formed from products the
    # "pair" checks around it also read
    from awbi import relations
    pairs = (((1, 2, 3), (1, 4), 5), ((1, 2), (1, 3, 4), 4), ((1, 2), (1, 3), 3),
             ((1, 2, 3), (3, 4, 5), 5))
    checks = [check for A, B, n in pairs
              for check in (("pair", A, B, n), ("star", A, B, n), ("comm", B, A, n),
                            ("pair", B, A, n), ("comm", A, B, n), ("star", B, A, n))]
    reports = relations.run_batch(backend, checks)
    for (relation, A, B, n), rep in zip(checks, reports):
        if relation == "pair":
            single = relations._scan_pair(backend, A, B, n)
            star, comm = check_star(A, B, n, backend), check_comm(A, B, n, backend)
            assert (rep.holds_star, rep.residual_star_terms, rep.holds_comm,
                    rep.residual_comm_terms) == (star.holds_star, star.residual_star_terms,
                                                 comm.holds_comm, comm.residual_comm_terms)
        else:
            single = (check_star if relation == "star" else check_comm)(A, B, n, backend)
        assert rep.to_json() == single.to_json(), (relation, A, B, n)
    assert {rep.holds_star for rep in reports if rep.holds_star is not None} == {True, False}


def test_failed_and_abandoned_parallel_scans_leave_no_process():
    import multiprocessing
    import os
    import signal

    class Stop(Exception):
        pass

    def stop(rep):
        stop.workers = multiprocessing.active_children()
        raise Stop

    with pytest.raises(Stop):
        scan(5, AW, workers=2, progress=stop)
    assert not multiprocessing.active_children()
    # abandoned at the first report, the workers are stopped, not waited for
    assert [proc.exitcode for proc in stop.workers] == [-signal.SIGTERM] * 2

    def kill_one(rep):
        if rep.A == rep.B == ():
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="scan worker"):
        scan(5, AW, workers=2, progress=kill_one)
    assert time.perf_counter() - t0 < 10
    assert not multiprocessing.active_children()


_CACHES = ("_PROD_CACHE", "_VERDICTS", "compress")


def cache_sizes():
    """The sizes of the relation caches and of the compress memo."""
    from awbi import extension, relations
    sizes = {name: len(getattr(relations, name)) for name in _CACHES[:2]}
    sizes["compress"] = extension.compress.cache_info().currsize
    return sizes


def count_products_made(monkeypatch):
    """Log the key of every product _prod makes, not finding it cached."""
    from awbi import relations
    made = []
    prod = relations._prod

    def logged_prod(b, m, ea, eb):
        key = relations._prod_key(b, m, ea, eb)
        if key not in relations._PROD_CACHE:
            made.append(key)
        return prod(b, m, ea, eb)

    monkeypatch.setattr(relations, "_prod", logged_prod)
    return made


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_single_checks_and_scans_leave_the_caches_empty(backend, monkeypatch):
    # a call made outside any batch is a batch of one, and a scan is one
    # batch: each drops what it made
    from awbi import relations
    from awbi.relations import comm_sides, star_sides
    relations.clear_caches()
    empty = dict.fromkeys(_CACHES, 0)
    made = count_products_made(monkeypatch)
    # a pair that compresses to arity 3 and one that does not
    for A, B, n in (((1, 2, 3), (1, 4), 5), ((1, 3), (2, 3), 3)):
        for call in (check_star, check_comm, star_sides, comm_sides):
            made.clear()
            call(A, B, n, backend)
            assert made and cache_sizes() == empty, (call.__name__, A, B, n)
    scan(4, backend)
    assert cache_sizes() == empty


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
@pytest.mark.parametrize("suite", (
    lambda b: suite_commute(4, b), lambda b: suite_theorem_B(4, b),
    suite_named_lemmas, lambda b: suite_fundamental(b, 5),
), ids=("commute", "theorem_B", "named_lemmas", "fundamental"))
def test_suites_make_each_product_once_and_leave_the_caches_empty(suite, backend, monkeypatch):
    # a suite is one batch: a product that two of its checks read is made
    # once and kept for the later one, and nothing is left after the suite.
    # The fundamental families up to arity 5 share no product, so for them
    # only the emptiness is at stake.
    from awbi import relations
    relations.clear_caches()
    made = count_products_made(monkeypatch)
    reports = suite(backend)
    assert reports and all(r.label for r in reports)
    assert len(made) == len(set(made))
    assert cache_sizes() == dict.fromkeys(_CACHES, 0)


def test_run_batch_checks_and_sides_share_products_and_reject_unknown_relations(monkeypatch):
    # the pair does not compress, so its sides are the check's products
    from awbi import relations
    made = count_products_made(monkeypatch)
    rep, (lhs, rhs) = relations.run_batch(AW, [("comm", (1, 2), (2, 3), 3),
                                               ("comm_sides", (1, 2), (2, 3), 3)])
    assert len(made) == 2 and rep.residual_comm == lhs - rhs
    with pytest.raises(ValueError, match="starr"):
        relations.run_batch(AW, [("starr", (1,), (2,), 2)])


@pytest.mark.parametrize("backend", (AW, BI), ids=("aw", "bi"))
def test_sides_and_residual_agree(backend):
    # the sides and the residual are formed in separate passes; for every
    # pair at n <= 3 and both relations, lhs - rhs of the published sides
    # is the published residual of the check
    from awbi import relations
    checks = [(kind, A, B, n) for n in (1, 2, 3) for A in subsets(n) for B in subsets(n)
              for relation in ("star", "comm") for kind in (relation, relation + "_sides")]
    results = relations.run_batch(backend, checks)
    failing = set()
    for (kind, A, B, n), report, (lhs, rhs) in zip(checks[::2], results[::2], results[1::2]):
        residual = getattr(report, "residual_" + kind)
        assert lhs - rhs == residual, (A, B, n, kind)
        if not residual.is_zero():
            failing.add(kind)
    assert failing == {"star", "comm"}
