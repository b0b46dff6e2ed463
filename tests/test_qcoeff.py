"""Exact coefficient arithmetic: canonical forms, field axioms, evaluation."""

import random
from fractions import Fraction

import pytest

from awbi.qcoeff import LaurentPoly, RatQ, ONE, ZERO, lp, rq, vpow


def test_add_mul_basics():
    p = lp((2, 1), (-2, -1))                      # v^2 - v^-2
    sq = p * p
    assert sq == lp((4, 1), (0, -2), (-4, 1))
    assert p + LaurentPoly.zero() == p
    assert (lp((2, 1), (0, 1)) - lp((2, 1), (0, 1))).is_zero()


def test_canonical_reduction():
    # (v^4 - 1)/(v^2 - 1) -> v^2 + 1
    a = RatQ.make(lp((4, 1), (0, -1)), lp((2, 1), (0, -1)))
    assert a == rq((2, 1), (0, 1))
    # self-quotient
    p = lp((2, 1), (-2, -1))
    assert RatQ.make(p, p) == ONE
    # the stated normalization: 1/(v^2 - v^-2) has den with valuation 0
    # and positive leading coefficient, i.e. v^2/(v^4 - 1)
    b = RatQ.make(lp((0, 1)), lp((2, 1), (-2, -1)))
    assert b.num == lp((2, 1))
    assert b.den == lp((4, 1), (0, -1))
    assert b.den.valuation() == 0
    assert b.den.leading_coeff() > 0


def test_canonical_idempotent():
    b = RatQ.make(lp((0, 1)), lp((2, 1), (-2, -1)))
    again = RatQ.make(b.num, b.den)
    assert again.num is not None
    assert again == b
    assert again.num == b.num and again.den == b.den


def test_content_and_sign_normalization():
    a = RatQ.make(lp((1, 2), (0, 6)), lp((0, -4)))
    assert a == RatQ.make(lp((1, -1), (0, -3)), lp((0, 2)))
    assert a.den.leading_coeff() > 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatQ.make(lp((0, 1)), LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _random_poly(rng, max_terms=3, max_exp=4, max_coeff=5):
    d = {}
    for _ in range(rng.randint(0, max_terms)):
        d[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(d)


def _random_ratq(rng):
    num = _random_poly(rng)
    den = _random_poly(rng)
    while den.is_zero():
        den = _random_poly(rng)
    return RatQ.make(num, den)


def test_field_axioms_randomized():
    rng = random.Random(20240211)
    for _ in range(120):
        a, b, c = (_random_ratq(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE


def test_mul_and_inverse_examples():
    c = rq((1, 1), (0, 3))                        # v + 3
    assert c * (ONE / c) == ONE
    q_plus = rq((2, 1), (-2, 1))
    assert q_plus + ZERO == q_plus
    assert rq((2, 1), (-2, -1)) * q_plus == rq((4, 1), (-4, -1))


def test_evaluation_homomorphism():
    rng = random.Random(99)
    r = Fraction(3, 2)
    for _ in range(80):
        a, b = _random_ratq(rng), _random_ratq(rng)
        try:
            av, bv = a.evaluate(r), b.evaluate(r)
        except ZeroDivisionError:
            continue
        assert (a + b).evaluate(r) == av + bv
        assert (a * b).evaluate(r) == av * bv
        assert (a - b).evaluate(r) == av - bv
        if bv != 0:
            assert (a / b).evaluate(r) == av / bv


def _naive_value(p, r):
    return sum((c * Fraction(r) ** e for e, c in p.d.items()), Fraction(0))


@pytest.mark.parametrize("r", [Fraction(-3, 2), Fraction(2, 5), Fraction(-1, 3), 3, -2], ids=str)
def test_evaluate_equals_naive_power_sum(r):
    # negative, |r| < 1 and int points; negative-only, positive-only,
    # mixed, constant and zero polynomials
    polys = [lp((-3, 2), (-1, -5)), lp((1, 4), (6, -1)), lp((-2, 1), (0, 3), (5, -7)),
             lp((0, 7)), LaurentPoly.zero()]
    dens = [lp((0, 1)), lp((0, 1), (2, 1)), lp((-1, 1), (0, 5)), lp((2, 1), (-2, -1))]
    for p in polys:
        got = p.evaluate(r)
        assert type(got) is Fraction and got == _naive_value(p, r)
        for den in dens:
            x = RatQ.make(p, den)
            got = x.evaluate(r)
            assert type(got) is Fraction
            assert got == _naive_value(x.num, r) / _naive_value(x.den, r)
            assert got == _naive_value(p, r) / _naive_value(den, r)


def test_evaluate_rejects_inexact_points():
    for r in (1.5, 2.0):
        with pytest.raises(TypeError):
            lp((1, 1)).evaluate(r)
        with pytest.raises(TypeError):
            rq((1, 1)).evaluate(r)


def test_vpow_and_json_roundtrip():
    assert vpow(3) * vpow(-3) == ONE
    rng = random.Random(5)
    for _ in range(25):
        a = _random_ratq(rng)
        assert RatQ.from_json(a.to_json()) == a


def test_divexact_errors():
    with pytest.raises(ValueError):
        lp((2, 1), (0, 1)).divexact(lp((1, 1), (0, 1)))
    assert lp((4, 1), (0, -1)).divexact(lp((2, 1), (0, -1))) == lp((2, 1), (0, 1))


# -- the factored fast path against the general gcd path ------------------------

_SET = (lp((1, 1), (0, -1)), lp((1, 1), (0, 1)), lp((2, 1), (0, 1)))   # v-1, v+1, v^2+1


def _set_product(rng, most):
    p = LaurentPoly.mono(rng.randint(-3, 3), rng.choice((1, -1)))
    for f in _SET:
        for _ in range(rng.randint(0, most)):
            p = p * f
    return p


def _splits_over_set(p):
    """Is p, up to +-v^k, a product of v-1, v+1 and v^2+1?"""
    for f in _SET:
        while True:
            try:
                p = p.divexact(f)
            except ValueError:
                break
    return len(p.d) == 1 and abs(p.leading_coeff()) == 1


def _factored_ratq(rng):
    """An element whose denominator is +-v^k times a product of the factor
    set, built from a numerator that often carries some of those factors."""
    num = _random_poly(rng) * _set_product(rng, 1)
    return RatQ.make(num, _set_product(rng, 2))


def _general_form(num, den):
    from awbi.qcoeff import _reduce
    n, d = _reduce(num, den)
    return n, d, {"num": [[e, str(c)] for e, c in sorted(n.d.items())],
                  "den": [[e, str(c)] for e, c in sorted(d.d.items())]}


def test_fast_path_equals_general_path():
    rng = random.Random(20261018)
    cancelled = 0
    for _ in range(300):
        a, b = _factored_ratq(rng), _factored_ratq(rng)
        cases = [(a + b, a.num * b.den + b.num * a.den, a.den * b.den),
                 (a - b, a.num * b.den - b.num * a.den, a.den * b.den),
                 (a * b, a.num * b.num, a.den * b.den)]
        # a divisor whose numerator lies in the set keeps the quotient there
        unit = RatQ.make(_set_product(rng, 1), _set_product(rng, 2))
        cases.append((a / unit, a.num * unit.den, a.den * unit.num))
        for r, num, den in cases:
            n, d, js = _general_form(num, den)
            assert (r.num, r.den, r.to_json()) == (n, d, js)
            assert hash(r) == hash((n, d))
            cancelled += len(d.d) < len(den.d)
        if b:                   # b.num may leave the set: either path
            n, d, js = _general_form(a.num * b.den, a.den * b.num)
            r = a / b
            assert (r.num, r.den, r.to_json()) == (n, d, js)
            assert hash(r) == hash((n, d))
    assert cancelled > 100      # the samples do exercise cancellation


def test_general_path_keeps_canonical_form():
    v = lp((1, 1))
    cases = [(lp((0, 3)), lp((0, 2)), lp((0, 3)), lp((0, 2))),          # 3/2
             (lp((1, 2), (0, 2)), lp((2, 4), (0, -4)),                   # 2(v+1)/4(v^2-1)
              lp((0, 1)), lp((1, 2), (0, -2))),
             (lp((2, 1)), lp((4, 1), (3, 1), (2, 1)),                    # v^2/v^2(v^2+v+1)
              lp((0, 1)), lp((2, 1), (1, 1), (0, 1))),
             (lp((1, -1)), lp((1, -1), (0, 2)), v, lp((1, 1), (0, -2)))]  # v/(v-2)
    for num, den, cnum, cden in cases:
        r = RatQ.make(num, den)
        assert (r.num, r.den) == (cnum, cden)
        assert RatQ.from_json(r.to_json()) == r


def test_general_result_inside_the_set_comes_back_factored():
    x = RatQ.make(lp((0, 1)), lp((2, 1), (1, -3), (0, 2)))              # 1/((v-1)(v-2))
    y = x * rq((1, 1), (0, -2))                                          # times (v-2)
    assert y == RatQ.make(lp((0, 1)), lp((1, 1), (0, -1)))
    assert hash(y) == hash(RatQ.make(lp((0, 1)), lp((1, 1), (0, -1))))
    assert x - x == ZERO
    assert RatQ.make(lp((0, 6)), lp((0, 6))) == ONE


def test_mixed_fast_and_general_operands():
    rng = random.Random(77)
    points = (Fraction(3, 2), Fraction(-5, 7))
    outside = (lp((0, 2)), lp((2, 1), (1, 1), (0, 1)), lp((1, 1), (0, -2)))
    for _ in range(60):
        fast = _factored_ratq(rng)
        gen = ONE
        while _splits_over_set(gen.den):    # the numerator may cancel the outside factor
            gen = RatQ.make(_random_poly(rng) or lp((0, 1)),
                            rng.choice(outside) * _set_product(rng, 1))
        for r, num, den in [(fast + gen, fast.num * gen.den + gen.num * fast.den,
                             fast.den * gen.den),
                            (gen - fast, gen.num * fast.den - fast.num * gen.den,
                             fast.den * gen.den),
                            (fast * gen, fast.num * gen.num, fast.den * gen.den)]:
            n, d, js = _general_form(num, den)
            assert (r.num, r.den, r.to_json()) == (n, d, js)
            assert hash(r) == hash((n, d))
            for x in points:
                assert r.evaluate(x) == num.evaluate(x) / den.evaluate(x)


def test_from_json_roundtrip_both_kinds():
    rng = random.Random(8)
    for _ in range(40):
        for x in (_factored_ratq(rng), _random_ratq(rng)):
            back = RatQ.from_json(x.to_json())
            assert back == x and hash(back) == hash(x)


def test_engine_path_runs_no_gcd(monkeypatch):
    # the lattice tables are converted once, on first use, and may reduce
    # there; building and multiplying in the lattice after that may not
    from awbi import qcoeff
    from awbi.extension import build, IndexSet
    from awbi.relations import get_backend, subsets

    lattices = [get_backend(name).lattice for name in ("aw", "bi")]

    def refuse(*args):
        raise AssertionError("polynomial gcd on the engine path")

    monkeypatch.setattr(qcoeff, "_int_gcd_poly", refuse)
    for lat in lattices:
        g = {A: build(IndexSet(4, A), lat) for A in subsets(4)}
        assert all(type(p) is int for x in g.values() for p, _ in x.terms.values())
        assert not (g[(1, 2)] * g[(2, 3)]).is_zero()
