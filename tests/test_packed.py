"""Lattice products and builds on Kronecker-packed coefficients:
Lattice.mul_terms equals the term-dict product Backend.mul_terms on random
and cancelling inputs, its slot width grows with the l1 bound across the
32-bit threshold, a build repacks at a doubled width before its carried
bound reaches a slot, and neither a warm product nor a warm build makes
LaurentPoly arithmetic."""

import random

import pytest

from awbi import osp_engine as osp
from awbi import pbw
from awbi import uq_engine as uq
from awbi.extension import IndexSet, build, generator, make_plan, plan_right
from awbi.pbw import Backend, EdgeElem, Lattice, slot_width
from awbi.qcoeff import LaurentPoly

from test_golden import STRAIGHTENING

AW, BI = uq.AW, osp.BI


def reference(lat, a, b):
    return Backend.mul_terms(lat, a, b)


def random_poly(rng, spread=6, size=5):
    d = {}
    for _ in range(rng.randint(1, 4)):
        d[rng.randint(-spread, spread)] = rng.choice(
            [c for c in range(-size, size + 1) if c])
    return LaurentPoly(d)


def random_terms(rng, backend, arity, count):
    ranges, _ = STRAIGHTENING[backend.name]
    return {tuple(backend.pack(*(rng.choice(r) for r in ranges))
                  for _ in range(arity)): random_poly(rng)
            for _ in range(count)}


def group_like(backend, e):
    """The monomial K^e of the backend's first group-like field."""
    i = next(j for j, g in enumerate(backend.gen_delta) if g is None)
    return backend.pack(*(e if j == i else 0 for j in range(len(backend.field_names))))


def max_coeff(terms):
    return max((abs(x) for c in terms.values() for x in c.d.values()), default=0)


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_packed_product_equals_term_dict_product(backend, arity):
    lat = backend.lattice
    rng = random.Random(f"{backend.name}-{arity}")
    exps = set()
    for _ in range(12):
        a = random_terms(rng, backend, arity, rng.randint(1, 8))
        b = random_terms(rng, backend, arity, rng.randint(1, 8))
        want = reference(lat, a, b)
        assert lat.mul_terms(a, b) == want
        assert max_coeff(want) <= lat.product_bound(a, b)
        exps.update(e for c in a.values() for e in c.d)
    # the inputs carried negative, zero and positive exponents
    assert min(exps) < 0 < max(exps) and 0 in exps


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_cancelled_keys_are_absent(backend, arity):
    # on the first leg c (1 + K) times v^3 (K - 1) is c v^3 (K^2 - 1): the
    # K terms cancel, whatever the other legs multiply to
    lat = backend.lattice
    rng = random.Random(arity)
    ranges, _ = STRAIGHTENING[backend.name]

    def pad():
        return tuple(backend.pack(*(rng.choice(r) for r in ranges))
                     for _ in range(arity - 1))

    k0, k1, k2 = (group_like(backend, e) for e in (0, 1, 2))
    pad_a, pad_b, c = pad(), pad(), LaurentPoly({-3: 2, 1: -1})
    a = {(k0,) + pad_a: c, (k1,) + pad_a: c}
    b = {(k1,) + pad_b: LaurentPoly.mono(3), (k0,) + pad_b: LaurentPoly.mono(3, -1)}
    got = lat.mul_terms(a, b)
    assert got == reference(lat, a, b)
    assert got and {k[0] for k in got} == {k0, k2}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_empty_factor(backend):
    lat = backend.lattice
    a = random_terms(random.Random(0), backend, 2, 4)
    assert lat.mul_terms(a, {}) == {} == reference(lat, a, {})
    assert lat.mul_terms({}, a) == {} == reference(lat, {}, a)
    assert lat.mul_terms({}, {}) == {}


def test_slot_width_rule():
    assert slot_width(0) == slot_width(1) == slot_width(2 ** 31 - 1) == 32
    assert slot_width(2 ** 31) == slot_width(2 ** 63 - 1) == 64
    assert slot_width(2 ** 63) == 96
    for w in (5, 2 ** 31 - 1, 2 ** 31, 10 ** 40):
        k = slot_width(w)
        assert k % 32 == 0 and 2 ** (k - 1) > w and (k == 32 or 2 ** (k - 33) <= w)


def scaled(terms, factor):
    return {k: c * LaurentPoly.mono(0, factor) for k, c in terms.items()}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_guard_crosses_the_32_bit_threshold(backend):
    lat = backend.lattice
    n = 3
    a, b = generator(lat, n, (1, 2)).terms, generator(lat, n, (2, 3)).terms
    w = lat.product_bound(a, b)
    assert slot_width(w) == 32
    # scaling a by x scales the bound by exactly x: just below and just
    # above 2^31 the width is 32 and 64, and the product stays exact
    below = (2 ** 31 - 1) // w
    for x, k in ((below, 32), (below + 1, 64)):
        ax = scaled(a, x)
        assert lat.product_bound(ax, b) == w * x
        assert slot_width(lat.product_bound(ax, b)) == k
        got = lat.mul_terms(ax, b)
        assert got == reference(lat, ax, b)
        assert got == scaled(lat.mul_terms(a, b), x)
    # one group-like term each attains the bound: at 2^31 a 32-bit slot
    # would read the coefficient back as -2^31
    key, key2 = (group_like(backend, 1),), (group_like(backend, 2),)
    for c, k in ((2 ** 31 - 1, 32), (2 ** 31, 64), (-(2 ** 31) - 5, 64)):
        a, b = {key: LaurentPoly.mono(-2, c)}, {key: LaurentPoly.mono(5)}
        assert slot_width(lat.product_bound(a, b)) == k
        assert lat.mul_terms(a, b) == {key2: LaurentPoly.mono(3, c)}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_guard_widens_for_huge_coefficients(backend):
    lat = backend.lattice
    rng = random.Random(40)
    a = {k: c * LaurentPoly({0: 10 ** 40 + rng.randint(0, 999), 2: -(10 ** 40)})
         for k, c in random_terms(rng, backend, 2, 6).items()}
    b = {k: c * LaurentPoly.mono(-1, 10 ** 40 - 7)
         for k, c in random_terms(rng, backend, 2, 6).items()}
    k = slot_width(lat.product_bound(a, b))
    assert k >= 288      # 10^80 needs 266 bits
    want = reference(lat, a, b)
    assert max_coeff(want) > 2 ** 256
    assert lat.mul_terms(a, b) == want


def counted_polynomial_arithmetic(calls):
    """LaurentPoly __mul__ and __add__ that count their calls in calls."""
    real_mul, real_add = LaurentPoly.__mul__, LaurentPoly.__add__

    def mul(x, y):
        calls["mul"] += 1
        return real_mul(x, y)

    def add(x, y):
        calls["add"] += 1
        return real_add(x, y)

    return mul, add


def test_warm_product_makes_no_polynomial_arithmetic(monkeypatch):
    # with warm leg caches the packed loop multiplies and adds plain ints
    # only; a silent fallback to the term-dict loop would count here
    calls = {"mul": 0, "add": 0}
    mul, add = counted_polynomial_arithmetic(calls)
    for backend in (AW, BI):
        lat = backend.lattice
        ga, gb = generator(lat, 4, (1, 3)), generator(lat, 4, (2, 4))
        want = ga * gb                      # warms the leg caches
        assert want.terms == reference(lat, ga.terms, gb.terms)
        monkeypatch.setattr(LaurentPoly, "__mul__", mul)
        monkeypatch.setattr(LaurentPoly, "__add__", add)
        got = ga * gb
        packed = dict(calls)
        reference(lat, ga.terms, gb.terms)  # the term-dict loop is counted
        monkeypatch.undo()
        assert got == want and not got.is_zero()
        assert packed == {"mul": 0, "add": 0}, backend.name
        assert calls["mul"] > 0 and calls["add"] > 0
        calls.update(mul=0, add=0)


def test_warm_build_makes_no_polynomial_arithmetic(monkeypatch):
    # a build runs packed from the seed to the conversion: once its tables
    # and the conversion memo are warm, an arity-6 build under orders with
    # coactions, edge and interior coproducts makes no LaurentPoly
    # arithmetic, in the lattice or in the published basis
    calls = {"mul": 0, "add": 0}
    mul, add = counted_polynomial_arithmetic(calls)
    A = IndexSet(6, (1, 2, 4, 6))
    for backend in (AW, BI, AW.lattice, BI.lattice):
        for process in ("right", "left", "mixed:2", "derived"):
            plan = make_plan(A, process)
            want = build(A, backend, plan)
            monkeypatch.setattr(LaurentPoly, "__mul__", mul)
            monkeypatch.setattr(LaurentPoly, "__add__", add)
            got = build(A, backend, plan)
            monkeypatch.undo()
            assert got == want and not got.is_zero()
            assert calls == {"mul": 0, "add": 0}, (backend, process)


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_build_repacks_past_a_narrow_slot_width(backend, monkeypatch):
    # a fresh lattice at slot width 8: the carried bound of an arity-6
    # build crosses 2^7, so the state is repacked at 16 (and on) before it
    # is unpacked; the build and its conversion equal the default-width ones
    widened = []

    def counted_fit_width(bound, k):
        widened.append((k, real_fit_width(bound, k)))
        return widened[-1][1]

    real_fit_width = pbw.fit_width
    monkeypatch.setattr(pbw, "fit_width", counted_fit_width)
    narrow = Lattice(backend)
    narrow.width = 8
    A = IndexSet(6, (1, 3, 4, 6))
    assert build(A, narrow).terms == build(A, backend.lattice).terms
    assert widened and all(k2 > k for k, k2 in widened)
    state = EdgeElem.casimir_delta(narrow)
    for kind, _ in plan_right(A).steps[1:]:
        state = state.tau_r() if kind == "TauR" else state.delta_r()
    x = state.expand()
    assert 2 ** 7 <= x.bound < 2 ** (x.k - 1) and x.k > 8
    assert narrow.from_lattice(x, 1) == build(A, backend)
