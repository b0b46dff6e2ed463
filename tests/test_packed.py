"""Lattice products on Kronecker-packed coefficients: Lattice.mul_terms
equals the term-dict product Backend.mul_terms on random and cancelling
inputs, its slot width grows with the l1 bound across the 32-bit
threshold, and its loop makes no LaurentPoly arithmetic."""

import random

import pytest

from awbi import osp_engine as osp
from awbi import uq_engine as uq
from awbi.extension import generator
from awbi.pbw import Backend, slot_width
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


def test_warm_product_makes_no_polynomial_arithmetic(monkeypatch):
    # with warm leg caches the packed loop multiplies and adds plain ints
    # only; a silent fallback to the term-dict loop would count here
    calls = {"mul": 0, "add": 0}
    real_mul, real_add = LaurentPoly.__mul__, LaurentPoly.__add__

    def mul(x, y):
        calls["mul"] += 1
        return real_mul(x, y)

    def add(x, y):
        calls["add"] += 1
        return real_add(x, y)

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
