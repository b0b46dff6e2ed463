"""The lattice ring on Kronecker-packed coefficients: products, sums,
differences, negations, scalings, coproducts, counits and padding of packed
elements (EdgeElem) equal the term-dict reference, Backend.mul_terms and
the AlgElem operations on Laurent polynomial terms, on random and
cancelling inputs; the packed side of every product is an EdgeElem
product, never the reference loop that the lattice's own tables derive
through.  The slot width grows with the l1 bound across 2^(k-1) in
products, builds and relation checks, and neither a warm product, a warm
build nor a warm relation check makes LaurentPoly arithmetic."""

import hashlib
import json
import random

import pytest

from awbi import osp_engine as osp
from awbi import pbw, relations
from awbi import uq_engine as uq
from awbi.extension import IndexSet, build, generator, make_plan, plan_right
from awbi.pbw import AlgElem, Backend, EdgeElem, Lattice, fit_width
from awbi.qcoeff import LaurentPoly
from awbi.relations import check_comm, check_star, subsets

from test_golden import STRAIGHTENING

AW, BI = uq.AW, osp.BI


def reference(lat, a, b):
    return Backend.mul_terms(lat, a, b)


def packed(lat, arity, a, b):
    """The product of term dicts a and b of the given arity on packed
    coefficients (EdgeElem._times), unpacked."""
    return (lat.element(arity, a) * lat.element(arity, b)).laurent_terms()


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
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_packed_product_equals_term_dict_product(backend, arity):
    lat = backend.lattice
    rng = random.Random(f"{backend.name}-{arity}")
    exps, several = set(), set()
    # fewer rounds from arity 4 on: the reference's LaurentPoly expansion
    # of multi-term legs grows with every leg
    for _ in range(12 if arity <= 3 else 4):
        a = random_terms(rng, backend, arity, rng.randint(1, 8))
        b = random_terms(rng, backend, arity, rng.randint(1, 8))
        want = reference(lat, a, b)
        assert packed(lat, arity, a, b) == want
        assert max_coeff(want) <= lat.product_bound(lat.element(arity, a),
                                                    lat.element(arity, b))
        exps.update(e for c in a.values() for e in c.d)
        several.update(i for k1 in a for k2 in b for i, xy in enumerate(zip(k1, k2))
                       if len(lat.mul_mono(*xy)) > 1)
    # the inputs carried negative, zero and positive exponents
    assert min(exps) < 0 < max(exps) and 0 in exps
    # from arity 2 on, both halves of the split product (at leg
    # (arity + 1) // 2) met leg products of several terms
    h = (arity + 1) // 2
    assert min(several) < h and (arity == 1 or max(several) >= h)


def check_cancelling_leg(backend, arity, leg):
    # on leg 0 or -1, c (1 + K) times v^3 (K - 1) is c v^3 (K^2 - 1): the
    # K terms cancel, whatever the other legs multiply to
    lat = backend.lattice
    rng = random.Random(arity)
    ranges, _ = STRAIGHTENING[backend.name]

    def pad():
        return tuple(backend.pack(*(rng.choice(r) for r in ranges))
                     for _ in range(arity - 1))

    def key(m, rest):
        return (m,) + rest if leg == 0 else rest + (m,)

    k0, k1, k2 = (group_like(backend, e) for e in (0, 1, 2))
    pad_a, pad_b, c = pad(), pad(), LaurentPoly({-3: 2, 1: -1})
    a = {key(k0, pad_a): c, key(k1, pad_a): c}
    b = {key(k1, pad_b): LaurentPoly.mono(3), key(k0, pad_b): LaurentPoly.mono(3, -1)}
    got = packed(lat, arity, a, b)
    assert got == reference(lat, a, b)
    assert got and {k[leg] for k in got} == {k0, k2}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
@pytest.mark.parametrize("arity", [1, 2, 3, 4, 5])
def test_cancelled_keys_are_absent(backend, arity):
    # the cancelling leg is the first, in the left half of the split product
    check_cancelling_leg(backend, arity, 0)


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_cancelled_keys_in_the_right_half_are_absent(backend, arity):
    # the cancelling leg is the last, in the right half of the split product
    check_cancelling_leg(backend, arity, -1)


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_empty_factor(backend):
    lat = backend.lattice
    a = random_terms(random.Random(0), backend, 2, 4)
    assert packed(lat, 2, a, {}) == {} == reference(lat, a, {})
    assert packed(lat, 2, {}, a) == {} == reference(lat, {}, a)
    assert packed(lat, 2, {}, {}) == {} == reference(lat, {}, {})


def test_fit_width_rule():
    assert fit_width(0, 64) == fit_width(1, 64) == fit_width(2 ** 63 - 1, 64) == 64
    assert fit_width(2 ** 63, 64) == fit_width(2 ** 127 - 1, 64) == 128
    assert fit_width(2 ** 127, 64) == 256
    assert fit_width(2 ** 7, 8) == 16 and fit_width(2 ** 31, 32) == 64
    for w in (5, 2 ** 31 - 1, 2 ** 31, 10 ** 40):
        for k0 in (8, 32, 64):
            k = fit_width(w, k0)
            assert k % k0 == 0 and 2 ** (k - 1) > w and (k == k0 or 2 ** (k // 2 - 1) <= w)


def scaled(terms, factor):
    return {k: c * LaurentPoly.mono(0, factor) for k, c in terms.items()}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_guard_crosses_the_32_bit_threshold(backend):
    # a fresh lattice whose elements start at slot width 32
    lat = Lattice(backend)
    lat.width = 32
    n = 3
    a, b = (generator(backend.lattice, n, X).laurent_terms() for X in ((1, 2), (2, 3)))
    pa, pb = lat.element(n, a), lat.element(n, b)
    w = lat.product_bound(pa, pb)
    assert fit_width(w, 32) == 32 and (pa * pb).k == 32
    # scaling a by x scales the bound by exactly x: just below and just
    # above 2^31 the width is 32 and 64, and the product stays exact
    below = (2 ** 31 - 1) // w
    for x, k in ((below, 32), (below + 1, 64)):
        ax = scaled(a, x)
        pax = lat.element(n, ax)
        assert lat.product_bound(pax, pb) == w * x
        got = pax * pb
        assert got.k == k
        assert got.laurent_terms() == reference(lat, ax, b)
        assert got.laurent_terms() == scaled((pa * pb).laurent_terms(), x)
    # one group-like term each attains the bound: at 2^31 a 32-bit slot
    # would read the coefficient back as -2^31
    key, key2 = (group_like(backend, 1),), (group_like(backend, 2),)
    for c, k in ((2 ** 31 - 1, 32), (2 ** 31, 64), (-(2 ** 31) - 5, 64)):
        got = lat.element(1, {key: LaurentPoly.mono(-2, c)}) * lat.element(
            1, {key: LaurentPoly.mono(5)})
        assert got.k == k
        assert got.laurent_terms() == {key2: LaurentPoly.mono(3, c)}
    # a sum and a scaling that reach 2^31 repack first
    half = lat.element(1, {key: LaurentPoly.mono(0, 2 ** 30)})
    assert half.k == 32
    for got, want in ((half + half, LaurentPoly.mono(0, 2 ** 31)),
                      (half.scale(LaurentPoly.mono(1, 2)), LaurentPoly.mono(1, 2 ** 31))):
        assert got.k == 64 and got.laurent_terms() == {key: want}


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_guard_widens_for_huge_coefficients(backend):
    lat = backend.lattice
    rng = random.Random(40)
    a = {k: c * LaurentPoly({0: 10 ** 40 + rng.randint(0, 999), 2: -(10 ** 40)})
         for k, c in random_terms(rng, backend, 2, 6).items()}
    b = {k: c * LaurentPoly.mono(-1, 10 ** 40 - 7)
         for k, c in random_terms(rng, backend, 2, 6).items()}
    got = lat.element(2, a) * lat.element(2, b)
    assert got.k >= 288      # 10^80 needs 266 bits
    want = reference(lat, a, b)
    assert max_coeff(want) > 2 ** 256
    assert got.laurent_terms() == want


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
        la, lb = ga.laurent_terms(), gb.laurent_terms()
        want = ga * gb                      # warms the leg caches
        assert want.laurent_terms() == reference(lat, la, lb)
        monkeypatch.setattr(LaurentPoly, "__mul__", mul)
        monkeypatch.setattr(LaurentPoly, "__add__", add)
        got = ga * gb
        packed = dict(calls)
        reference(lat, la, lb)              # the term-dict loop is counted
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
    assert build(A, narrow).laurent_terms() == build(A, backend.lattice).laurent_terms()
    assert widened and all(k2 > k for k, k2 in widened)
    state = EdgeElem.casimir_delta(narrow)
    for kind, _ in plan_right(A).steps[1:]:
        state = state.tau_r() if kind == "TauR" else state.delta_r()
    x = state.expand()
    assert 2 ** 7 <= x.bound < 2 ** (x.k - 1) and x.k > 8
    assert narrow.from_lattice(x, 1) == build(A, backend)


def assert_certified(x, want):
    """x is the packed form of the reference element want, canonical, with
    a bound that covers its l1 norm and fits its slot width."""
    assert isinstance(x, EdgeElem) and x.arity == want.arity
    assert x.laurent_terms() == want.terms
    assert sum(map(pbw._l1, want.terms.values())) <= x.bound < 2 ** (x.k - 1)
    assert all(p & ((1 << x.k) - 1) for p, _ in x.terms.values())


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_packed_ring_equals_term_dict_ring(backend, arity):
    # sums, differences, negations, scalings, coproducts, counits, padding
    # and products of random packed elements against the same operations of
    # AlgElem on their Laurent polynomial terms, the reference; b cancels
    # two of a's terms in a + b
    lat = backend.lattice
    rng = random.Random(f"ring-{backend.name}-{arity}")
    for _ in range(10):
        a = random_terms(rng, backend, arity, rng.randint(2, 8))
        b = random_terms(rng, backend, arity, rng.randint(1, 8))
        b.update((key, -a[key]) for key in list(a)[:2])
        pa, pb = lat.element(arity, a), lat.element(arity, b)
        ra, rb = AlgElem(lat, arity, a), AlgElem(lat, arity, b)
        c, pos = random_poly(rng), rng.randint(1, arity)
        for got, want in ((pa + pb, ra + rb), (pa - pb, ra - rb), (pa - pa, ra - ra),
                          (-pa, -ra),
                          (pa.scale(c), ra.scale(c)),
                          (pa.coproduct(pos), ra.coproduct(pos)),
                          (pa.counit(pos), ra.counit(pos)),
                          (pa.pad(1, 2), ra.pad(1, 2)),
                          (pa * pb, AlgElem(lat, arity, reference(lat, a, b)))):
            assert_certified(got, want)
        assert (pa - pa).is_zero() and pa + pb == pb + pa


def test_sum_strips_an_emptied_low_slot():
    # (1 + 2v) + (-1 + v^3) = 2v + v^3: the lowest slot empties, and the
    # sum is stored as the canonical (2 + 2^(2k), 1)
    lat = AW.lattice
    key = (AW.identity,)
    x = lat.element(1, {key: LaurentPoly({0: 1, 1: 2})})
    y = lat.element(1, {key: LaurentPoly({0: -1, 3: 1})})
    k = lat.width
    assert (x + y).terms == {key: (2 + (1 << 2 * k), 1)}
    assert x + y == lat.element(1, {key: LaurentPoly({1: 2, 3: 1})})


def test_warm_relation_checks_make_no_polynomial_arithmetic(monkeypatch):
    # once a pair's generators and coefficient conversions are cached,
    # check_star and check_comm make no LaurentPoly arithmetic, although
    # each call is a batch of one that makes its products again:
    # ((1,3),(2,3)) at n=3 does not compress, ((1,2,3),(1,2,4)) at n=4
    # compresses to ((1,2),(1,3)) at n=3; both fail both relations, so
    # their residuals are lifted and converted
    calls = {"mul": 0, "add": 0}
    mul, add = counted_polynomial_arithmetic(calls)
    for backend in (AW, BI):
        for A, B, n in (((1, 3), (2, 3), 3), ((1, 2, 3), (1, 2, 4), 4)):
            for check, relation in ((check_star, "star"), (check_comm, "comm")):
                want = getattr(check(A, B, n, backend), "residual_" + relation)
                monkeypatch.setattr(LaurentPoly, "__mul__", mul)
                monkeypatch.setattr(LaurentPoly, "__add__", add)
                got = getattr(check(A, B, n, backend), "residual_" + relation)
                monkeypatch.undo()
                assert got == want and not got.is_zero()
                assert calls == {"mul": 0, "add": 0}, (backend, A, B, relation)


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_relation_checks_repack_past_a_narrow_slot_width(backend, monkeypatch):
    # every pair at n=3 on a fresh lattice at slot width 8: builds,
    # products, sums and the lift drive their bounds across 2^7 and repack,
    # and every residual equals the default-width one
    n = 3
    pairs = [(A, B) for A in subsets(n) for B in subsets(n)]

    def residuals():
        return [(check_star(A, B, n, backend).residual_star,
                 check_comm(A, B, n, backend).residual_comm) for A, B in pairs]

    want = residuals()
    widened = []

    def counted_fit_width(bound, k):
        widened.append((k, real_fit_width(bound, k)))
        return widened[-1][1]

    real_fit_width = pbw.fit_width
    narrow = Lattice(backend)
    narrow.width = 8
    monkeypatch.setattr(pbw, "fit_width", counted_fit_width)
    monkeypatch.setattr(backend, "_lattice", narrow)
    relations.clear_caches()
    try:
        got = residuals()
    finally:
        monkeypatch.undo()
        relations.clear_caches()
    assert got == want
    assert any(k == 8 for k, _ in widened) and all(k2 > k for k, k2 in widened)
    assert any(not r.is_zero() for pair in got for r in pair)


def chained(parts):
    """sum c x over parts by the chain of scalings and sums, one operation
    at a time."""
    total = None
    for c, x in parts:
        total = x.scale(c) if total is None else total + x.scale(c)
    return total


def assert_one_pass_equals_chain(parts):
    """lincomb(parts) is the chain's element, with its terms, slot width and
    bound, and the packed form of the Laurent polynomial reference."""
    lat, arity = parts[0][1].backend, parts[0][1].arity
    got, want = pbw.lincomb(parts), chained(parts)
    assert (got.terms, got.k, got.bound) == (want.terms, want.k, want.bound)
    reference = pbw.term_dict(*((key, c * v) for c, x in parts
                                for key, v in x.laurent_terms().items()))
    assert_certified(got, AlgElem(lat, arity, reference))
    return got


@pytest.mark.parametrize("backend", [AW, BI], ids=lambda b: b.name)
def test_one_pass_combination_equals_the_chain(backend, monkeypatch):
    lat = backend.lattice
    w, s, plus, minus, _ = lat.side_scalars[True]
    rng = random.Random(f"lincomb-{backend.name}")
    one, zero = LaurentPoly.mono(0), LaurentPoly.zero()
    for n, A, B in ((3, (1, 3), (2, 3)), (3, (1, 2), (2, 3)), (4, (1, 3), (2, 4))):
        # the standard relation's residual; (1,2),(2,3) holds, so it cancels
        # to exactly zero
        g = lambda *S: generator(lat, n, S)
        sa, sb = set(A), set(B)
        parts = [(plus, g(*A) * g(*B)), (minus, g(*B) * g(*A)), (w, g(*sorted(sa ^ sb))),
                 (s, g(*sorted(sa & sb)) * g(*sorted(sa | sb))),
                 (s, g(*sorted(sa - sb)) * g(*sorted(sb - sa)))]
        got = assert_one_pass_equals_chain(parts)
        assert got.is_zero() == (A == (1, 2))
        assert_one_pass_equals_chain([(one, parts[0][1]), (-one, parts[0][1])])
    # operands at two slot widths, a zero scalar, and empty operands: a
    # fresh one and a cancelled one that kept its width and bound
    arity = 2
    wide = lat.element(arity, {k: c * LaurentPoly.mono(0, 1 << 70)
                               for k, c in random_terms(rng, backend, arity, 3).items()})
    plain = lat.element(arity, random_terms(rng, backend, arity, 6))
    cancelled = wide - wide
    assert wide.k > plain.k == lat.width and cancelled.is_zero() and cancelled.k == wide.k
    for parts in ([(random_poly(rng), plain), (random_poly(rng), wide)],
                  [(random_poly(rng), wide), (zero, plain), (random_poly(rng), plain)],
                  [(zero, wide), (random_poly(rng), plain)],
                  [(random_poly(rng), lat.element(arity, {})), (random_poly(rng), plain)],
                  [(random_poly(rng), plain), (random_poly(rng), cancelled)],
                  [(zero, plain)]):
        assert_one_pass_equals_chain(parts)
    # on a fresh lattice at slot width 8 the bound crosses 2^7 in the
    # combination, not in its operands, and the result repacks
    fresh = Lattice(backend)
    fresh.width = 8
    monkeypatch.setattr(backend, "_lattice", fresh)
    key = (backend.identity,) * arity
    x = fresh.element(arity, {key: LaurentPoly({0: 30, 2: -30})})
    y = fresh.element(arity, {key: LaurentPoly({1: 50})})
    got = assert_one_pass_equals_chain([(LaurentPoly({0: 1, 1: 1}), x), (one, y)])
    assert x.k == y.k == 8 and got.bound == 170 and got.k == 16


# check_star, check_comm, star_sides and comm_sides of both pairs of
# test_warm_relation_checks_make_no_polynomial_arithmetic: the first 16 hex
# digits of the sha256 of the report's and of the sides' sorted JSON, as
# the chain of scalings and sums gave them
ONE_PASS_PINS = {
    ("aw", (1, 3), (2, 3), 3, "star"): ("173e165be7edd71f", "07b1ea558de1ffce"),
    ("aw", (1, 3), (2, 3), 3, "comm"): ("c1c7d6cc42eb46ca", "483a7cdba4a63ff5"),
    ("aw", (1, 2, 3), (1, 2, 4), 4, "star"): ("7d6e1d5fa8a96d0e", "1416a6df9e7d8922"),
    ("aw", (1, 2, 3), (1, 2, 4), 4, "comm"): ("a613b3512b8c9847", "f3be1735f2a6fab9"),
    ("bi", (1, 3), (2, 3), 3, "star"): ("8bfcf5b6dcb791ec", "f9f6f9f3f89d52de"),
    ("bi", (1, 3), (2, 3), 3, "comm"): ("a5f753097eb9afe0", "ce8483f66cd90681"),
    ("bi", (1, 2, 3), (1, 2, 4), 4, "star"): ("32da3094a30c8087", "9c79c8f0d6d3a9e7"),
    ("bi", (1, 2, 3), (1, 2, 4), 4, "comm"): ("233fc70b914e6bf7", "35dcc904d1e2886d"),
}


def test_relation_checks_and_sides_make_no_chain_of_scalings_and_sums(monkeypatch):
    # each side, and the residual, is one lincomb pass: no EdgeElem.scale
    # and no EdgeElem._combine, from cold caches on
    calls = []

    def counted(name):
        real = getattr(EdgeElem, name)

        def method(*args):
            calls.append(name)
            return real(*args)
        return method

    def digest(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    relations.clear_caches()
    for name in ("scale", "_combine"):
        monkeypatch.setattr(EdgeElem, name, counted(name))
    for (name, A, B, n, relation), pins in ONE_PASS_PINS.items():
        backend = relations.get_backend(name)
        report = getattr(relations, "check_" + relation)(A, B, n, backend)
        sides = getattr(relations, relation + "_sides")(A, B, n, backend)
        assert calls == [], (name, A, B, relation)
        assert (digest(report.to_json()), digest([x.to_json() for x in sides])) == pins
