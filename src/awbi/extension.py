"""Construction of the generator attached to an arbitrary index set, by the
right, left, mixed and derived-order extension processes.

A plan is explicit data: the ordered list of morphism applications
(coproduct or coaction, with the target leg at application time), checked
once, by MorphismPlan.  Building executes it on the backend Casimir, with
the edge legs kept as coideal letters until the first coproduct on an
interior leg normalizes the element, then pads with identity legs.  Every
build runs in the backend's lattice (pbw.Lattice, over Z[v, v^-1]) on
coefficients packed at the lattice's slot width (64 bits), carrying one
certified l1 bound that each step multiplies by the largest row l1 sum of
its table (pbw.EdgeElem); a state whose bound would reach the slot is
repacked at twice the width first.  A lattice build stays packed, the
element relation checks multiply; a published one is converted once, in
EdgeElem.finalize.

Equality of the elements produced by different plans for the same set is a
theorem (and a first-class test here), not an assumption.  It rests on one
lemma: the coproduct on leg i, id^(i-1) (x) Delta (x) id^(n-i), sends the
generator of every set to the generator of that set with leg i doubled.
Two helpers state the lemma's bookkeeping once.  compress reads a pair of
sets (A, B) as a word over the membership letters 00, 10, 01, 11 (leg i in
A? in B?), merges each run of equal letters into one letter and strips 00
at both ends; widen(runs) is the schedule of coproducts that doubles the
legs back to their run lengths.  The derived order is the right process
on the compressed set followed by widen (plan_derived), and the relation
checks lift a compressed residual by the same schedule (relations).

Next to it stands the deletion lemma: the counit on leg i,
id^(i-1) (x) epsilon (x) id^(n-i), sends the generator of every set X to
the generator of X without i at arity n - 1, the legs above i renumbered
down.  It is checked, not proved: test_lattice::test_counit_deletes_a_leg
checks it on both lattices for every X in [1;n], n <= 6, and every leg.
A proof would run the counit axioms of the coproduct and of both
coactions along the construction; until one is written down, every use
of the lemma (the minimality statement at every n, README) rests on that
range.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from .pbw import AlgElem, Backend, CoactionError, EdgeElem
from .qcoeff import RatQ


@dataclass(frozen=True)
class IndexSet:
    """Subset of [1;n], kept sorted, with its ambient arity."""

    n: int
    elements: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("arity must be positive")
        for e in self.elements:
            try:
                operator.index(e)
            except TypeError:
                raise ValueError(f"element {e!r} is not an integer") from None
        elems = tuple(sorted(set(map(operator.index, self.elements))))
        object.__setattr__(self, "elements", elems)
        for e in elems[:1] + elems[-1:]:
            if not 1 <= e <= self.n:
                raise ValueError(f"element {e} out of range [1;{self.n}]")

    @staticmethod
    def parse(expr: str, n: int) -> "IndexSet":
        """Parse comma/range syntax like "1,3-5,8"."""
        elems = []
        expr = expr.strip()
        if expr:
            for chunk in expr.split(","):
                chunk = chunk.strip()
                m = re.fullmatch(r"(\d+)(?:-(\d+))?", chunk)
                if not m:
                    raise ValueError(f"cannot parse set chunk {chunk!r}")
                a, b = int(m.group(1)), int(m.group(2) or m.group(1))
                if a > b:
                    raise ValueError(f"bad range {chunk!r}")
                if a < 1 or b > n:
                    raise ValueError(f"set chunk {chunk!r} out of range [1;{n}]")
                elems.extend(range(a, b + 1))
        return IndexSet(n, tuple(elems))

    def intervals(self):
        """Decomposition into maximal discrete intervals [i;j].  Adjacent
        input intervals are merged by construction since elements is a set."""
        out = []
        for a in self.elements:
            if out and a == out[-1][1] + 1:
                out[-1] = (out[-1][0], a)
            else:
                out.append((a, a))
        return tuple(out)

    def __str__(self):
        return "{" + ",".join(map(str, self.elements)) + "}"


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

DELTA, TAU_R, TAU_L = "Delta", "TauR", "TauL"


@dataclass(frozen=True)
class MorphismPlan:
    """Ordered steps (kind, position), with positions counted at application
    time on the core element (leg 1 = min(A)).  Every plan rule is checked
    here, at construction: each step is a coproduct on an existing leg or a
    coaction on the outermost leg of its side (ValueError); the plan opens
    with the Casimir's coproduct, and no coaction follows a coproduct on an
    interior leg, which normalizes the element for good (CoactionError)."""

    steps: tuple

    def __post_init__(self):
        arity, normalized = 1, False
        for kind, pos in self.steps:
            if kind not in (DELTA, TAU_R, TAU_L):
                raise ValueError(f"unknown step kind {kind!r}")
            if kind == TAU_R and pos != arity:
                raise ValueError("right coaction must target the rightmost leg")
            if kind == TAU_L and pos != 1:
                raise ValueError("left coaction must target the leftmost leg")
            if kind == DELTA and not 1 <= pos <= arity:
                raise ValueError(f"coproduct position {pos} out of range")
            if kind != DELTA and arity == 1:
                raise CoactionError("a construction must start with the coproduct")
            if kind != DELTA and normalized:
                raise CoactionError("coaction requested on a normalized leg")
            normalized |= kind == DELTA and 1 < pos < arity
            arity += 1

    def render(self) -> str:
        """Composition notation, rightmost factor applied first."""
        bits = []
        arity = 1
        for kind, pos in self.steps:
            sym = {DELTA: "Delta", TAU_R: "tauR", TAU_L: "tauL"}[kind]
            left, right = pos - 1, arity - pos
            s = sym
            if left:
                s = f"1^{left} (x) {s}" if left > 1 else f"1 (x) {s}"
            if right:
                s = f"{s} (x) 1^{right}" if right > 1 else f"{s} (x) 1"
            bits.append(f"({s})")
            arity += 1
        return " ".join(reversed(bits)) if bits else "(id)"


def _core(A: IndexSet):
    if not A.elements:
        raise ValueError("extension plans need a nonempty set")
    base = A.elements[0]
    return tuple(a - base + 1 for a in A.elements)


def plan_right(A: IndexSet) -> MorphismPlan:
    """Ascending pass: each element after the minimum contributes a
    coproduct; right coactions open the gap before it."""
    return plan_mixed(A, 1)


def plan_left(A: IndexSet) -> MorphismPlan:
    """Descending pass: coproducts at the leftmost leg, left coactions open
    the gaps."""
    return plan_mixed(A, len(A.elements))


def plan_mixed(A: IndexSet, j: int) -> MorphismPlan:
    """Split at the j-th element (1-based): right process above the split,
    then left process below it.  j=1 is the right process, j=|A| the left."""
    a = _core(A)
    m = len(a)
    if not 1 <= j <= m:
        raise ValueError(f"split index {j} out of range 1..{m}")
    aj = a[j - 1]
    steps = []
    for i in range(j, m):
        steps.append((DELTA, a[i - 1] - aj + 1))
        for ell in range(a[i - 1] - aj + 1, a[i] - aj):
            steps.append((TAU_R, ell + 1))
    for i in range(j - 2, -1, -1):
        steps.append((DELTA, 1))
        for _ in range(a[i] + 1, a[i + 1]):
            steps.append((TAU_L, 1))
    return MorphismPlan(tuple(steps))


def plan_derived(A: IndexSet) -> MorphismPlan:
    """Hole-first order: build the alternating set {1,3,...,2k-1} (one leg
    per interval, one hole between each), then enlarge all holes and
    intervals to their lengths in A by coproducts (widen)."""
    base, _, runs, _, _ = compress(A.elements, A.elements, A.n)
    return MorphismPlan(plan_right(IndexSet(len(runs), base)).steps + widen(runs))


# A relation batch asks for a pair's compression for its two checks in a
# row, as it plans and as it runs; its end clears the memo (relations._drop).
@functools.lru_cache(maxsize=1)
def compress(A, B, n):
    """The compressed pair of (A, B) inside [1;n], as (A', B', runs, left,
    right): runs holds the length of each run of equal membership letters
    that survives, so the compressed arity is len(runs), and left and right
    count the 00 legs stripped at each end.  A word of 00 letters only is
    one run.  Elements outside [1;n] raise ValueError."""
    sa, sb = set(IndexSet(n, A).elements), set(IndexSet(n, B).elements)
    word = [(i in sa, i in sb) for i in range(1, n + 1)]
    runs = [(x, len(list(g))) for x, g in itertools.groupby(word)]
    left = right = 0
    if len(runs) > 1 and runs[0][0] == (False, False):
        left = runs.pop(0)[1]
    if len(runs) > 1 and runs[-1][0] == (False, False):
        right = runs.pop()[1]
    return (tuple(j for j, ((a, _), _) in enumerate(runs, 1) if a),
            tuple(j for j, ((_, b), _) in enumerate(runs, 1) if b),
            tuple(size for _, size in runs), left, right)


def widen(runs) -> tuple:
    """The coproduct steps that widen leg j of an element of arity
    len(runs) to runs[j-1] legs: leg j doubled runs[j-1] - 1 times, for j
    from right to left, so the legs still to widen keep their positions."""
    return tuple((DELTA, j) for j in range(len(runs), 0, -1)
                 for _ in range(runs[j - 1] - 1))


def make_plan(A: IndexSet, process: str) -> MorphismPlan | None:
    """The plan of the named process for A: right, left, derived or
    mixed:J.  An unknown name raises ValueError, for the empty set too,
    which has no plan (None) under any process."""
    m = re.fullmatch(r"right|left|derived|mixed:(\d+)", process)
    if m is None:
        raise ValueError(f"unknown process {process!r}")
    if not A.elements:
        return None
    if m.group(1):
        return plan_mixed(A, int(m.group(1)))
    return {"right": plan_right, "left": plan_left, "derived": plan_derived}[process](A)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _execute(backend: Backend, plan: MorphismPlan) -> AlgElem:
    """Run a plan on the backend Casimir: edge steps on the letter legs of
    an EdgeElem, its letters expanded at the first coproduct on an
    interior leg, after which the plan's rules leave only coproducts."""
    if not plan.steps:
        return AlgElem.casimir(backend)
    state = EdgeElem.casimir_delta(backend)
    for kind, pos in plan.steps[1:]:
        if kind == TAU_R:
            state = state.tau_r()
        elif kind == TAU_L:
            state = state.tau_l()
        elif pos == state.arity and state.has_r:
            state = state.delta_r()
        elif pos == 1 and state.has_l:
            state = state.delta_l()
        else:
            state = state.expand().delta_mid(pos)
    return state.finalize()


def build(A: IndexSet, backend: Backend, plan: MorphismPlan | None = None) -> AlgElem:
    """The generator for A inside the n-fold tensor power, over backend: a
    published backend or its lattice, where the build runs either way.  The
    plan (right by default) must span A; that is checked before it runs."""
    if not A.elements:
        return empty_generator(backend, A.n)
    if plan is None:
        plan = plan_right(A)
    lo, hi = A.elements[0], A.elements[-1]
    if len(plan.steps) + 1 != hi - lo + 1:
        raise ValueError("plan arity does not match the set span")
    return _execute(backend, plan).pad(lo - 1, A.n - hi)


def empty_generator(backend: Backend, n: int) -> AlgElem:
    """The scalar assigned to the empty set, times the identity."""
    return AlgElem.scalar(backend, n, backend.casimir_counit)


# ---------------------------------------------------------------------------
# generator cache
# ---------------------------------------------------------------------------

# keyed by the backend itself, so two backends that share a name never
# share an entry
_CACHE: dict = {}


def generator(backend: Backend, n: int, elements) -> AlgElem:
    """Cached right-process generator for the given subset of [1;n], over
    backend: a published backend or its lattice."""
    key = (backend, n, tuple(sorted(set(elements))))
    g = _CACHE.get(key)
    if g is None:
        g = _CACHE[key] = build(IndexSet(n, key[2]), backend)
    return g


def clear_cache():
    _CACHE.clear()


# ---------------------------------------------------------------------------
# the empty-set scalar, derived rather than assumed
# ---------------------------------------------------------------------------

def derive_empty_scalar(backend: Backend) -> RatQ:
    """Unique scalar c for which the standard relation holds for the
    disjoint pair A={1}, B={2} at n=2, solved linearly in the engine.

    The relation with A cap B empty reads
        bracket(G_A, G_B) = w * G_{AB} + s * (c * G_{AB} + G_A G_B),
    so c = (bracket - w * G_AB - s * G_A G_B) / (s * G_AB).
    """
    w, s, plus, minus = backend.relation
    g1 = generator(backend, 2, (1,))
    g2 = generator(backend, 2, (2,))
    g12 = generator(backend, 2, (1, 2))
    num = ((g1 * g2).scale(plus) + (g2 * g1).scale(minus)
           - g12.scale(w) - (g1 * g2).scale(s))
    den = g12.scale(s)
    key = next(iter(den.terms))
    c = num.terms.get(key)
    if c is None:
        raise ValueError("no consistent scalar exists")
    c = c / den.terms[key]
    if num != den.scale(c):
        raise ValueError("no consistent scalar exists")
    return c
