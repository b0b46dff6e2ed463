"""Relation checking: the standard relation that each backend declares
(pbw.Backend.relation) and plain commutation between two set-indexed
generators, the structural pattern that predicts when the standard
relation holds, curated regression suites, and the exhaustive scanner.

A failing relation is informative, not an error: check_star and
check_comm keep the residual (left minus right side in normal form) for
inspection; the scan keeps only the verdicts and term counts.  Both
relations go through one routine that works in the backend's lattice
(pbw.Lattice), over Z[v, v^-1], on packed elements (pbw.EdgeElem) from the
generators through the products to the residual, formed from the products
and a generator as one linear combination in one pass (pbw.lincomb), and
its lift; only the residuals check_* keep and the sides handed to callers,
each also one pass, are converted back to the published basis.

That routine decides each pair at its compressed arity
(extension.compress): every set a relation uses (A, B, their
intersection, union, symmetric difference and both differences) is a
union of letter classes, so it is the compressed pair's set with each run
widened back and the stripped legs restored.  By the leg-doubling lemma
stated in extension, each coproduct of the widening schedule
(extension.widen, the same schedule the derived construction order ends
with) is an algebra morphism sending each generator to the generator with
that leg doubled, and padding with identity legs sends it to the same set
shifted; both are injective, since the counit on either copy undoes them.
So the residual at arity n is the compressed residual widened and then
padded: the same element, zero exactly when the compressed one is.

Every check runs in a batch, and what a batch caches lives from its first
reader to its last.  A batch is a serial scan, a parallel scan's worker,
a suite, a run_batch call, or a single check_star, check_comm, star_sides
or comm_sides call made outside any batch (a batch of one).  A check that
keeps only its verdict, as the scan's do, reads (zero, term count) from
_VERDICTS; its residual's first reader lifts it once for each widening
schedule the batch reads it with, keeps those verdicts and drops it.  A
batch (_batch) first lists what each of its checks reads (_reads: the
verdict, and the products of the sides at the compressed arity, which a
verdict reader reads only on a miss), and after each check it drops every
product and verdict whose last reader that check was.  Its end empties the
caches.  So the caches hold only what a later check of the batch still
reads, and nothing outside a batch.  Freeing too early could only make a
product or verdict again, never change a verdict.

The scan runs each pair (A, B) next to its transpose (B, A), which reads
the same products, and emits its reports in pair order (see scan).

The structural pattern reads the same word without its 00 letters, as a
(10), b (01) and c (11): a pair has an admissible form exactly when its
word matches that form's template, a*c*b*a*, b*a*c*b* or c*b*a*c*.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import re
import time
from dataclasses import dataclass

from .pbw import AlgElem, Backend, bracket_q, lincomb
from .qcoeff import ONE
from . import extension
from .extension import generator


def get_backend(name: str) -> Backend:
    if name == "aw":
        from .uq_engine import AW
        return AW
    if name == "bi":
        from .osp_engine import BI
        return BI
    raise ValueError(f"unknown backend {name!r}")


# -- cached generator products, straightened in the lattice ------------------

# Every product a relation check needs is made in the backend's lattice
# twin (pbw.Lattice) from the cached packed lattice builds, and cached here
# packed, with its carried l1 bound: a cached product is normaliser^2 times
# the published one.  Both caches key by the backend itself, not by its
# name.

_PROD_CACHE: dict = {}

# Verdicts (zero, term count) of lifted residuals, keyed by (residual key,
# widening schedule); see _residual_key and _verdict.
_VERDICTS: dict = {}

# The running batch's plan: each residual key's widening schedules, popped
# when the key's verdicts are made; None outside a batch (see _batch).
_plan: dict | None = None


def _batch_of_one(fn):
    """A call made outside any batch is a batch of one."""
    @functools.wraps(fn)
    def call(*args):
        if _plan is not None:
            return fn(*args)
        try:
            return fn(*args)
        finally:
            _drop()
    return call


def _sorted(S):
    return tuple(sorted(set(S)))


def _prod_key(backend, n, ea, eb):
    return (backend, n, tuple(sorted(set(ea))), tuple(sorted(set(eb))))


def _prod(backend, n, ea, eb) -> AlgElem:
    key = _prod_key(backend, n, ea, eb)
    p = _PROD_CACHE.get(key)
    if p is None:
        lat = backend.lattice
        p = _PROD_CACHE[key] = generator(lat, n, key[2]) * generator(lat, n, key[3])
    return p


def _drop():
    """Empty the relation caches: what the end of a batch does."""
    _PROD_CACHE.clear()
    _VERDICTS.clear()
    extension.compress.cache_clear()


def clear_caches():
    _drop()
    extension.clear_cache()


# -- reports -------------------------------------------------------------------

@dataclass
class RelationReport:
    """Verdict for one ordered pair of index sets."""

    A: tuple
    B: tuple
    n: int
    backend: str
    holds_star: bool | None = None
    holds_comm: bool | None = None
    residual_star: AlgElem | None = None
    residual_comm: AlgElem | None = None
    residual_star_terms: int | None = None
    residual_comm_terms: int | None = None
    pattern_predicted: bool | None = None
    witness: tuple | None = None
    elapsed: float = 0.0
    label: str = ""

    def to_json(self, include_residual=True, include_timing=False):
        obj = {
            "A": list(self.A),
            "B": list(self.B),
            "n": self.n,
            "backend": self.backend,
        }
        if self.label:
            obj["label"] = self.label
        for rel in ("star", "comm"):
            holds = getattr(self, "holds_" + rel)
            residual = getattr(self, "residual_" + rel)
            if holds is not None:
                obj["holds_" + rel] = holds
                obj[f"residual_{rel}_terms"] = getattr(self, f"residual_{rel}_terms")
                if include_residual and residual is not None and not holds:
                    obj["residual_" + rel] = residual.to_json()
        if self.pattern_predicted is not None:
            obj["pattern_predicted"] = self.pattern_predicted
            if self.witness is not None:
                obj["witness"] = {"form": self.witness[0],
                                  "parts": [list(p) for p in self.witness[1]]}
        if include_timing:
            obj["elapsed_ms"] = round(self.elapsed * 1000.0, 3)
        return obj


def _nested(A, B):
    """One set contains the other."""
    sa, sb = set(A), set(B)
    return sa <= sb or sb <= sa


def _products(relation, A, B):
    """The ordered pairs (X, Y) whose products G_X G_Y the sides of the
    relation for (A, B) are formed from, in the order _lattice_sides reads
    them: (A, B) and (B, A), and for the standard relation also
    (int, uni) and (AmB, BmA) as in _lattice_sides."""
    if relation == "comm":
        return (A, B), (B, A)
    sa, sb = set(A), set(B)
    return ((A, B), (B, A), (tuple(sorted(sa & sb)), tuple(sorted(sa | sb))),
            (tuple(sorted(sa - sb)), tuple(sorted(sb - sa))))


def _lattice_sides(relation, A, B, n, backend, residual=False):
    """Both lattice sides, normaliser^2 times the published ones, of
    G_A G_B = G_B G_A ("comm") or of the standard relation ("star")
        plus*G_A*G_B + minus*G_B*G_A = w*G_sym + s*(G_int*G_uni + G_AmB*G_BmA),
    each as its list of (scalar, element) parts, which pbw.lincomb forms in
    one pass; with residual, the one list of lhs - rhs, the right side's
    scalars negated (Lattice.side_scalars)."""
    ab, ba, *rest = [_prod(backend, n, X, Y) for X, Y in _products(relation, A, B)]
    lat = backend.lattice
    w, s, plus, minus, one = lat.side_scalars[residual]
    if relation == "comm":
        lhs, rhs = [(lat.one, ab)], [(one, ba)]
    else:
        sym = generator(lat, n, tuple(sorted(set(A) ^ set(B))))
        lhs, rhs = [(plus, ab), (minus, ba)], [(w, sym), (s, rest[0]), (s, rest[1])]
    return lhs + rhs if residual else (lhs, rhs)


@_batch_of_one
def _sides(relation, A, B, n, backend):
    return tuple(backend.lattice.from_lattice(lincomb(side), 2)
                 for side in _lattice_sides(relation, A, B, n, backend))


def star_sides(A, B, n, backend):
    """Left and right sides of the standard relation for the ordered pair,
    in the published basis.  The generator products go through the shared
    cache, so a check of the same pair in the same batch (run_batch)
    reuses them."""
    return _sides("star", A, B, n, backend)


def comm_sides(A, B, n, backend):
    """G_A G_B and G_B G_A in the published basis, through the shared
    product cache."""
    return _sides("comm", A, B, n, backend)


def _residual_key(backend, relation, m, A2, B2):
    """The key of the residual of the compressed pair (A2, B2) at arity m.
    A commutator's key names the pair sorted, as comm(B, A) = -comm(A, B)."""
    return (backend, relation, m) + tuple(sorted((A2, B2)) if relation == "comm" else (A2, B2))


def _reads(backend, relation, A, B, n, verdict=False):
    """What the check (relation, A, B, n) of a batch reads from the caches:
    its verdict's key (residual key, widening schedule) if it keeps only the
    verdict, else None, and the keys of the products of its sides, at the
    compressed arity (a verdict reader reads them only on a miss), or at
    arity n for star_sides and comm_sides."""
    if relation.endswith("_sides"):
        return None, [_prod_key(backend, n, X, Y)
                      for X, Y in _products(relation[:-len("_sides")], A, B)]
    A2, B2, runs, _, _ = extension.compress(A, B, n)
    m = len(runs)
    return ((_residual_key(backend, relation, m, A2, B2), runs) if verdict else None,
            [_prod_key(backend, m, X, Y) for X, Y in _products(relation, A2, B2)])


def _widened(r, runs):
    """r with each leg widened to its run (extension.widen)."""
    for _, j in extension.widen(runs):
        r = r.coproduct(j)
    return r


def _lattice_residual(relation, A, B, n, backend, lift=True) -> AlgElem:
    """lhs - rhs of the relation in the lattice, decided at the compressed
    arity and lifted back to n (see the module docstring): one linear
    combination of the compressed pair's four products and generator, or
    two products for "comm", formed in one pass (_lattice_sides, lincomb);
    without lift, that compressed residual.  A pair that does not compress
    is its own compressed pair.  The transposed pair's commutator residual
    is this one negated, exactly: same zero flag, same lifted term count."""
    A2, B2, runs, left, right = extension.compress(A, B, n)
    r = lincomb(_lattice_sides(relation, A2, B2, len(runs), backend, True))
    if not lift:
        return r
    if r.is_zero():
        return AlgElem.zero(backend.lattice, n)
    return _widened(r, runs).pad(left, right)


def _verdict(relation, A, B, n, backend):
    """(zero, term count) of _lattice_residual, read from _VERDICTS.  On a
    miss the compressed residual is formed, lifted once for this pair's
    schedule and each the batch plans for its key, and only the verdicts
    are kept: padding keeps the count, and a zero residual is not lifted."""
    A2, B2, runs, _, _ = extension.compress(A, B, n)
    key = _residual_key(backend, relation, len(runs), A2, B2)
    verdict = _VERDICTS.get((key, runs))
    if verdict is None:
        r = _lattice_residual(relation, A, B, n, backend, lift=False)
        for schedule in dict.fromkeys((runs, *(_plan or {}).pop(key, ()))):
            _VERDICTS[key, schedule] = (True, 0) if r.is_zero() else \
                (False, _widened(r, schedule).term_count())
        verdict = _VERDICTS[key, runs]
    return verdict


@_batch_of_one
def _check(relation, A, B, n, backend, keep_residual=True) -> RelationReport:
    """The verdict of the relation at arity n, decided in the lattice from
    the compressed pair; with keep_residual also the published residual.
    The holds flag and the term count are read off the lifted residual's
    normal form, never short-circuited; they are the published residual's,
    as conversion scales each coefficient by a nonzero scalar.  Lifting is
    exact: the coproducts and the padding are injective algebra morphisms
    (the counit on either copy inverts a coproduct), so the lifted residual
    is the one the direct products would give."""
    A, B = _sorted(A), _sorted(B)
    t0 = time.perf_counter()
    if keep_residual:
        residual = _lattice_residual(relation, A, B, n, backend)
        zero, count = residual.is_zero(), residual.term_count()
        published = backend.lattice.from_lattice(residual, 2)
    else:
        (zero, count), published = _verdict(relation, A, B, n, backend), None
    return RelationReport(A, B, n, backend.name, elapsed=time.perf_counter() - t0,
                          **{"holds_" + relation: zero,
                             "residual_" + relation: published,
                             f"residual_{relation}_terms": count})


def check_star(A, B, n, backend, keep_residual=True) -> RelationReport:
    """Does the standard relation hold for (A, B)?"""
    return _check("star", A, B, n, backend, keep_residual)


def check_comm(A, B, n, backend, keep_residual=True) -> RelationReport:
    """Do G_A and G_B commute?"""
    return _check("comm", A, B, n, backend, keep_residual)


# -- the structural pattern ------------------------------------------------------

# per admissible form, its template with the groups A1, A2, A3, A4
_TEMPLATES = tuple(map(re.compile, (
    "(a*?)(c*)(b*)(a*)",            # form 1: A = A1|A2|A4, B = A2|A3
    "(b*?)(a*)(c*)(b*)",            # form 2: A = A2|A3,    B = A1|A3|A4
    "(c*?)(b*)(a*)(c*)",            # form 3: A = A1|A3|A4, B = A1|A2|A4
)))


def predict_pattern(A, B):
    """Decide whether (A, B) arises from an ordered quadruple
    A1 < A2 < A3 < A4 of separated (possibly empty) sets via one of the
    three admissible forms: (True, (form, (A1, A2, A3, A4))) for the first
    form whose template the pair's word matches, else (False, None).  Each
    constituent is one letter class; of the class that occurs twice, the
    lazy first group takes the shortest A1."""
    sa, sb = set(A), set(B)
    elems = sorted(sa | sb)
    # a (A only) = 1, b (B only) = 2, c (both) = 3
    word = "".join("-abc"[(e in sa) + 2 * (e in sb)] for e in elems)
    for form, template in enumerate(_TEMPLATES, 1):
        m = template.fullmatch(word)
        if m:
            return True, (form, tuple(tuple(elems[m.start(g):m.end(g)])
                                      for g in range(1, 5)))
    return False, None


# -- batches -----------------------------------------------------------------------

# A batch runs a list of checks (relation, A, B, n), A and B sorted tuples:
# relation "star" or "comm" is check_star or check_comm, "star_sides" or
# "comm_sides" is star_sides or comm_sides of the pair, and "pair" is the
# scan's check of both relations (_scan_pair).

def _check_reads(backend, checks):
    """For each check in order, the keys of the products and verdicts it
    reads, in the order it reads them, when the checks run in order from
    empty caches.  A "pair" check reads verdicts, and the products of a
    residual key only at the key's first reader."""
    seen = set()
    for relation, A, B, n in checks:
        keys = []
        for part in ("star", "comm") if relation == "pair" else (relation,):
            verdict, products = _reads(backend, part, A, B, n, relation == "pair")
            if verdict is not None:
                keys.append(verdict)
                if verdict[0] in seen:
                    continue
                seen.add(verdict[0])
            keys += products
        yield keys


def _run(backend, relation, A, B, n):
    """One check of a batch, made through the module's public functions."""
    if relation == "pair":
        return _scan_pair(backend, A, B, n)
    if relation.endswith("_sides"):
        return (star_sides if relation == "star_sides" else comm_sides)(A, B, n, backend)
    return (check_star if relation == "star" else check_comm)(A, B, n, backend)


def _batch(backend, checks):
    """The results of checks, run in order as one batch: each key's last
    reader and each residual's schedules are planned over these checks
    alone, a check's results are yielded once the keys it read last are
    dropped, and the caches are emptied when the batch ends, finished,
    failed or closed."""
    global _plan
    frees, plan = {}, {}
    for key, i in {key: i for i, keys in enumerate(_check_reads(backend, checks))
                   for key in keys}.items():
        frees.setdefault(i, []).append(key)
        if len(key) == 2:       # a verdict's (residual key, schedule)
            plan.setdefault(key[0], []).append(key[1])
    _plan = plan
    try:
        for i, check in enumerate(checks):
            result = _run(backend, *check)
            for key in frees.get(i, ()):
                _PROD_CACHE.pop(key, None)
                _VERDICTS.pop(key, None)
            yield result
    finally:
        _plan = None
        _drop()


def run_batch(backend, checks):
    """The results of checks, a list of (relation, A, B, n), made in order
    as one batch: the report of check_star or check_comm for "star" or
    "comm", the published sides of star_sides or comm_sides for
    "star_sides" or "comm_sides".  What two checks share is made once, and
    each cached product and verdict is dropped after the last check that
    reads it."""
    checks = [(relation, _sorted(A), _sorted(B), n) for relation, A, B, n in checks]
    for relation, *_ in checks:
        if relation not in ("star", "comm", "star_sides", "comm_sides", "pair"):
            raise ValueError(f"unknown relation {relation!r}")
    return list(_batch(backend, checks))


def _labelled(backend, cases):
    """The reports of cases, a list of (label, relation, A, B, n), checked as
    one batch, each with its label."""
    reports = run_batch(backend, [case[1:] for case in cases])
    for rep, case in zip(reports, cases):
        rep.label = case[0]
    return reports


# -- suites ------------------------------------------------------------------------

def subsets(n):
    items = range(1, n + 1)
    for r in range(n + 1):
        yield from itertools.combinations(items, r)


def suite_commute(n, backend):
    """Containment commutation: every ordered pair B <= A <= [1;n]."""
    return _labelled(backend, [("containment", "comm", A, B, n) for A in subsets(n)
                               for r in range(len(A) + 1)
                               for B in itertools.combinations(A, r)])


def suite_theorem_B(n, backend):
    """The standard relation on every pair inside [1;n] that predict_pattern
    accepts, in sorted (A, B) order, with the decider's form and witness."""
    cases, witnesses = [], []
    for A, B in sorted(itertools.product(subsets(n), repeat=2)):
        ok, witness = predict_pattern(A, B)
        if ok:
            cases.append((f"quadruple-form-{witness[0]}", "star", A, B, n))
            witnesses.append(witness)
    reports = _labelled(backend, cases)
    for rep, witness in zip(reports, witnesses):
        rep.witness = witness
    return reports


def fundamental_families(arity_limit=7):
    """The nine two-parameter families of fundamental pairs, instantiated
    for every (k, l) whose ambient arity stays within the limit."""
    out = []

    def evens(k):
        return tuple(range(2, 2 * k + 1, 2))

    for k in range(1, arity_limit // 2 + 1):
        n = 2 * k + 1
        if n > arity_limit:
            continue
        out.append(("C1", k, None, (1, 2) + evens(k)[1:], evens(k) + (2 * k + 1,), n))
        out.append(("C2", k, None, evens(k) + (2 * k + 1,), (1, 2 * k + 1), n))
        out.append(("C3", k, None, (1, 2 * k + 1), (1, 2) + evens(k)[1:], n))
    for k in range(1, arity_limit):
        for ell in range(0, arity_limit):
            # C4-C6 at n = 2k + 2l + 2, middle from leg 2k + 1; C4'-C6' at n + 1, from 2k + 2
            for n, off, tag in ((2 * k + 2 * ell + 2, 1, ""), (2 * k + 2 * ell + 3, 2, "'")):
                if n > arity_limit:
                    continue
                mid = tuple(range(2 * k + off, 2 * k + 2 * ell + 1 + off, 2))
                head = (1, 2) + evens(k)[1:] + (n,)
                out.append(("C4" + tag, k, ell, head, evens(k) + mid, n))
                out.append(("C5" + tag, k, ell, evens(k) + mid, (1,) + mid + (n,), n))
                out.append(("C6" + tag, k, ell, (1,) + mid + (n,), head, n))
    return out


def suite_fundamental(backend, arity_limit=7):
    return _labelled(backend, [(f"{name} k={k}" + ("" if ell is None else f" l={ell}"),
                                "star", A, B, n)
                               for name, k, ell, A, B, n in fundamental_families(arity_limit)])


# the fifteen explicit two-interval commutation relations
EXPLICIT_COMM_PAIRS = (
    ((1, 3, 4), (1, 3)), ((1, 3, 4), (1, 4)), ((1, 3, 4, 5), (1, 4)),
    ((1, 2, 4), (1, 4)), ((1, 2, 4, 5), (1, 4)), ((1, 2, 4, 5), (1, 5)),
    ((1, 2, 4, 5, 6), (1, 5)), ((1, 2, 4), (2, 4)), ((1, 2, 4, 5), (2, 4)),
    ((1, 2, 4, 5), (2, 5)), ((1, 2, 4, 5, 6), (2, 5)), ((1, 2, 3, 5), (2, 5)),
    ((1, 2, 3, 5, 6), (2, 5)), ((1, 2, 3, 5, 6), (2, 6)),
    ((1, 2, 3, 5, 6, 7), (2, 6)),
)


def named_commutation_cases():
    """Curated commutation regressions: the fifteen explicit two-interval
    pairs, the even-set versus bracket pairs, and the interval families."""
    cases = []
    for A, B in EXPLICIT_COMM_PAIRS:
        cases.append(("explicit-list", A, B, max(A)))
    for k in range(1, 4):
        evens = tuple(range(2, 2 * k + 1, 2))
        cases.append((f"evens-vs-bracket k={k}", evens, (1, 2 * k + 1), 2 * k + 1))
    for k in range(1, 3):
        full = tuple(range(1, 2 * k + 2))
        cases.append((f"bracket-vs-filled k={k}",
                      (1, 2 * k + 1), (1, 2) + tuple(range(4, 2 * k + 1, 2)) + (2 * k + 1,),
                      2 * k + 1))
        odds = tuple(range(1, 2 * k, 2))
        evens = tuple(range(2, 2 * k + 1, 2))
        cases.append((f"odds-vs-interval k={k}", odds, tuple(range(1, 2 * k + 1)), 2 * k))
        cases.append((f"odds-vs-interval-short k={k}", odds, tuple(range(1, 2 * k)), 2 * k - 1 if k > 1 else 1))
        cases.append((f"evens-vs-interval k={k}", evens, tuple(range(1, 2 * k + 1)), 2 * k))
        cases.append((f"evens-vs-interval-long k={k}", evens, full, 2 * k + 1))
        cases.append((f"evens-vs-filled k={k}", evens,
                      (1, 2) + tuple(range(4, 2 * k + 1, 2)) + (2 * k + 1,), 2 * k + 1))
        cases.append((f"pair-vs-filled k={k}", (1, 2 * k),
                      (1, 2) + tuple(range(4, 2 * k + 1, 2)), 2 * k))
        cases.append((f"pair-vs-odds k={k}", (1, 2 * k),
                      tuple(range(1, 2 * k, 2)) + (2 * k,), 2 * k))
    return cases


def named_star_cases():
    """Curated standard-relation regressions: separated triple couples."""
    cases = []
    triples = (((1,), 2, (3,)), ((1,), 3, (5,)), ((1, 2), 3, (4, 5)))
    for a1, i, a2 in triples:
        n = max(a2) if a2 else i
        mid = (i,)
        cases.append((f"couple-left {a1}|{i}|{a2}",
                      tuple(sorted(a1 + mid)), tuple(sorted(mid + a2)), n))
        cases.append((f"couple-mid {a1}|{i}|{a2}",
                      tuple(sorted(mid + a2)), tuple(sorted(a1 + a2)), n))
        cases.append((f"couple-right {a1}|{i}|{a2}",
                      tuple(sorted(a1 + a2)), tuple(sorted(a1 + mid)), n))
    return cases


def suite_named_lemmas(backend):
    """Fixed regression list of commutation and standard-relation
    statements at small parameters."""
    return _labelled(backend, [(label, relation, A, B, n)
                               for relation, cases in (("comm", named_commutation_cases()),
                                                       ("star", named_star_cases()))
                               for label, A, B, n in cases])


# -- nested q-commutator identities -------------------------------------------------

def q_identities_regression(backend):
    """The four nested-bracket exchange identities, instantiated with
    generators that satisfy the commutation hypotheses:
        [a,[c,d]_q]_q = [[a,c]_q,d]_q    when [a,d] = 0,
        [a,[c,d]_q]_q = [c,[a,d]_q]_q    when [a,c] = 0,
        [[c,d]_q,b]_q = [[c,b]_q,d]_q    when [b,d] = 0,
        [[c,d]_q,b]_q = [c,[d,b]_q]_q    when [b,c] = 0.
    """
    q = backend.relation[2]                     # q on aw, q^(1/2) on bi

    def br(x, y):
        return bracket_q(x, y, q, -(ONE / q))

    def comm(x, y):
        return bracket_q(x, y, ONE, -ONE)

    n = 3
    g = lambda *elems: generator(backend, n, elems)
    one = AlgElem.one(backend, n)
    c, d = g(1, 2), g(2, 3)
    out = []
    for label, a, hypot, lhs_fn, rhs_fn in (
        ("exchange-1", g(1), lambda a: comm(a, d),
         lambda a: br(a, br(c, d)), lambda a: br(br(a, c), d)),
        ("exchange-2", g(3), lambda a: comm(a, c),
         lambda a: br(a, br(c, d)), lambda a: br(c, br(a, d))),
        ("exchange-3", g(1), lambda b: comm(b, d),
         lambda b: br(br(c, d), b), lambda b: br(br(c, b), d)),
        ("exchange-4", g(3), lambda b: comm(b, c),
         lambda b: br(br(c, d), b), lambda b: br(c, br(d, b))),
    ):
        for x, tag in ((a, ""), (one, " scalar")):
            rep = RelationReport(tuple(), tuple(), n, backend.name, label=label + tag)
            hyp = hypot(x)
            res = lhs_fn(x) - rhs_fn(x)
            rep.holds_comm = hyp.is_zero() and res.is_zero()
            rep.residual_comm = res if not res.is_zero() else hyp
            rep.residual_comm_terms = rep.residual_comm.term_count()
            out.append(rep)
    return out


# -- the exhaustive pair scanner ------------------------------------------------------

def _scan_pair(backend, A, B, n) -> RelationReport:
    """Both verdicts and term counts of one pair, and the pattern's
    prediction; no residual is kept."""
    t0 = time.perf_counter()
    rep = check_star(A, B, n, backend, keep_residual=False)
    comm = check_comm(A, B, n, backend, keep_residual=False)
    rep.holds_comm, rep.residual_comm_terms = comm.holds_comm, comm.residual_comm_terms
    rep.pattern_predicted, rep.witness = predict_pattern(A, B)
    rep.elapsed = time.perf_counter() - t0
    return rep


def _scan_rows(n):
    """The scan's run order in rows of checks: row A checks (A, B) and then
    (B, A) for each B from A onward, in subset order."""
    sets = list(subsets(n))
    return [[("pair", *pair, n) for B in sets[i:] for pair in dict.fromkeys(((A, B), (B, A)))]
            for i, A in enumerate(sets)]


def _scan_worker(backend, rows, conn):
    """A parallel scan's worker: its rows, run as one batch, and each row's
    reports sent down conn as one list."""
    results = _batch(backend, list(itertools.chain(*rows)))
    for row in rows:
        conn.send(list(itertools.islice(results, len(row))))


def _scan_reports(n, backend, workers):
    """The reports in the run order of _scan_rows.  A serial scan is one
    batch.  With W workers, worker w runs rows w, w + W, ... as one batch
    and sends each row's reports down its own pipe, and row i is read from
    worker i mod W; so each process plans and frees over exactly the checks
    it runs.  Closing this generator, or a worker that ends before sending
    its row (RuntimeError), terminates and joins every worker."""
    rows = _scan_rows(n)
    if workers == 1:
        yield from _batch(backend, list(itertools.chain(*rows)))
        return
    # imported here, so a serial run never loads multiprocessing; a spawned
    # worker inherits no thread or lock of the caller's
    from multiprocessing import get_context
    context, procs, conns = get_context("spawn"), [], []
    try:
        for w in range(workers):
            conn, send = context.Pipe(duplex=False)
            procs.append(context.Process(target=_scan_worker,
                                         args=(backend, rows[w::workers], send)))
            procs[-1].start()
            send.close()  # else the pipe reads no EOF when its worker ends
            conns.append(conn)
        for i in range(len(rows)):
            try:
                yield from conns[i % workers].recv()
            except EOFError:
                raise RuntimeError(f"scan worker {procs[i % workers].name} ended "
                                   f"before sending row {i}") from None
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()


def scan(n, backend, workers=1, progress=None):
    """Classify every ordered pair of subsets of [1;n]: does the standard
    relation hold, does the commutator vanish, and does the structural
    pattern predict the former.  The pairs run in grouped order, each
    (A, B) next to (B, A) (see _scan_rows), so a product lives about one
    row of pairs, not 2^n rows.  Row A is complete when its pass ends, as
    its pairs with an earlier B ran as transposes before; a report is held
    until the pairs before it are in, so progress, if given, receives each
    report in pair order, at most one row late.  Each process of the scan
    runs its rows as one batch (see the module docstring and
    _scan_reports).  Returns (reports, summary)."""
    t0 = time.perf_counter()
    index = {S: i for i, S in enumerate(subsets(n))}
    reports, held = [], {}
    with contextlib.closing(_scan_reports(n, backend, workers)) as results:
        for rep in results:
            held[index[rep.A] * len(index) + index[rep.B]] = rep
            while len(reports) in held:
                reports.append(held.pop(len(reports)))
                if progress is not None:
                    progress(reports[-1])
    disagreements = [r for r in reports if r.holds_star != r.pattern_predicted]
    containment_failures = [
        r for r in reports if _nested(r.A, r.B) and not r.holds_comm
    ]
    summary = {
        "n": n,
        "backend": backend.name,
        "pairs": len(reports),
        "star_holds": sum(r.holds_star for r in reports),
        "comm_holds": sum(r.holds_comm for r in reports),
        "pattern_predicted": sum(r.pattern_predicted for r in reports),
        "pattern_disagreements": [
            {"A": list(r.A), "B": list(r.B),
             "holds_star": r.holds_star, "pattern_predicted": r.pattern_predicted,
             "containment_degenerate": bool(r.holds_star and _nested(r.A, r.B))}
            for r in disagreements
        ],
        "containment_comm_failures": [
            {"A": list(r.A), "B": list(r.B)} for r in containment_failures
        ],
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    return reports, summary
