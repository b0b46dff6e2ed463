"""Numeric cross-validation in exact rational representations."""

import random
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest

from awbi import uq_engine as uq
from awbi import osp_engine as osp
from awbi.extension import generator
from awbi.numoracle import (DEFAULT_POINTS, RepSpec, crosscheck,
                            crosscheck_points, evaluate, mat_add, mat_identity,
                            mat_is_zero, mat_mul, mat_scale, rep_matrices)
from awbi.pbw import AlgElem
from awbi.qcoeff import rq, vpow
from awbi.relations import star_sides

AW = uq.AW


def test_rep_satisfies_defining_relations():
    for dim in (2, 3, 4):
        for q in (Fraction(9, 4), Fraction(25, 49)):
            M = rep_matrices(dim, q)
            idm = mat_identity(dim)
            assert mat_mul(M["K"], M["Ki"]) == idm
            assert mat_mul(M["K"], M["E"]) == mat_scale(mat_mul(M["E"], M["K"]), q * q)
            assert mat_mul(M["K"], M["F"]) == mat_scale(mat_mul(M["F"], M["K"]), 1 / (q * q))
            comm = mat_add(mat_mul(M["E"], M["F"]), mat_mul(M["F"], M["E"]), 1, -1)
            expected = mat_scale(mat_add(M["K"], M["Ki"], 1, -1), 1 / (q - 1 / q))
            assert comm == expected


def test_degenerate_q_rejected():
    with pytest.raises(ValueError):
        rep_matrices(2, Fraction(1))
    with pytest.raises(ValueError):
        RepSpec((2, 2), Fraction(1))
    with pytest.raises(ValueError):
        RepSpec((0,), Fraction(3, 2))


def test_int_point_is_exact():
    # an int q used to give float powers q ** -m, so the Casimir came back
    # as the float 16.0625
    spec = RepSpec((2,), 2)
    assert type(spec.v_value) is Fraction
    m = evaluate(AlgElem.casimir(AW), spec)
    assert m == mat_scale(mat_identity(2), Fraction(257, 16))
    assert all(type(x) is Fraction for row in m for x in row)
    M = rep_matrices(2, 4)
    assert all(type(x) is Fraction for a in M.values() for row in a for x in row)


@pytest.mark.parametrize("bad", [1.5, 2.0, Decimal("1.5"), 1.5j, "3/2"], ids=repr)
def test_inexact_point_rejected(bad):
    with pytest.raises(TypeError):
        RepSpec((2,), bad)
    with pytest.raises(TypeError):
        rep_matrices(2, bad)


def test_non_int_dims_rejected():
    with pytest.raises(TypeError):
        RepSpec((2.0,), Fraction(3, 2))
    with pytest.raises(TypeError):
        RepSpec((2, Fraction(2)), Fraction(3, 2))
    with pytest.raises(TypeError):
        rep_matrices(2.0, Fraction(9, 4))


def test_two_dim_casimir_scalar():
    spec = RepSpec((2,), Fraction(3, 2))
    q = Fraction(9, 4)
    m = evaluate(AlgElem.casimir(AW), spec)
    assert m == mat_scale(mat_identity(2), q ** 2 + q ** -2)


def test_three_dim_casimir_is_scalar():
    spec = RepSpec((3,), Fraction(3, 2))
    m = evaluate(AlgElem.casimir(AW), spec)
    c = m[0][0]
    assert m == mat_scale(mat_identity(3), c)


def test_identity_element_evaluates_to_identity():
    spec = RepSpec((2, 3), Fraction(3, 2))
    assert evaluate(AlgElem.one(AW, 2), spec) == mat_identity(6)


def test_evaluation_is_multiplicative():
    rng = random.Random(17)
    spec = RepSpec((2, 2), Fraction(3, 2))
    for _ in range(25):
        def r_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                key = tuple(AW.pack(rng.randint(0, 2), rng.randint(-2, 2),
                                    rng.randint(0, 2)) for _ in range(2))
                terms[key] = uq.QM if rng.random() < 0.5 else uq.DINV
            return AlgElem(AW, 2, terms)
        x, y = r_elem(), r_elem()
        assert evaluate(x * y, spec) == mat_mul(evaluate(x, spec), evaluate(y, spec))


def test_pair_generator_commutes_with_coproduct_image():
    spec = RepSpec((2, 2), Fraction(3, 2))
    g12 = evaluate(generator(AW, 2, (1, 2)), spec)
    for exps in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):          # E, F, K
        img = evaluate(AlgElem.mono(AW, exps).coproduct(1), spec)
        assert mat_mul(g12, img) == mat_mul(img, g12)


def test_rank_one_numeric_and_negative_control():
    lhs, rhs = star_sides((1, 2), (2, 3), 3, AW)
    assert crosscheck_points(lhs, rhs, (2, 2, 2))
    perturbed = lhs + AlgElem.one(AW, 3)
    assert not crosscheck_points(perturbed, rhs, (2, 2, 2))


def test_process_equivalence_numeric():
    from awbi.extension import IndexSet, build, plan_left, plan_right
    A = IndexSet(3, (1, 3))
    lhs = build(A, AW, plan_right(A))
    rhs = build(A, AW, plan_left(A))
    for r in DEFAULT_POINTS:
        assert crosscheck(lhs, rhs, RepSpec((2, 2, 2), r))


def test_cotensor_numeric():
    from awbi.pbw import EdgeElem
    seed = EdgeElem.casimir_delta(AW)
    assert crosscheck_points(seed.tau_r().finalize(), seed.tau_l().finalize(),
                             (2, 2, 2))


def test_arity_mismatch_and_backend_guard():
    spec = RepSpec((2, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        evaluate(AlgElem.casimir(AW), spec)
    with pytest.raises(ValueError):
        evaluate(AlgElem.casimir(osp.BI), RepSpec((2,), Fraction(3, 2)))


def test_mixed_dims():
    spec = RepSpec((2, 3), Fraction(5, 7))
    g = generator(AW, 2, (1, 2))
    m = evaluate(g, spec)
    idm = evaluate(AlgElem.one(AW, 2), spec)
    prod = mat_add(mat_mul(m, idm), mat_mul(idm, m), 1, -1)
    assert mat_is_zero(prod)
    # the first leg is the most significant index
    E2 = rep_matrices(2, spec.v_value ** 2)["E"]
    F3 = rep_matrices(3, spec.v_value ** 2)["F"]
    e_leg = evaluate(AlgElem.mono(AW, (0, 0, 1)).pad(0, 1), spec)
    f_leg = evaluate(AlgElem.mono(AW, (1, 0, 0)).pad(1, 0), spec)
    assert e_leg == tuple(tuple(E2[i // 3][j // 3] * (i % 3 == j % 3)
                                for j in range(6)) for i in range(6))
    assert f_leg == tuple(tuple((i // 3 == j // 3) * F3[i % 3][j % 3]
                                for j in range(6)) for i in range(6))


def test_suite_agreement_with_symbolic_verdicts():
    # every ordered pair at n<=3: the numeric verdict of the standard
    # relation matches the symbolic one on all-spin-half legs
    from awbi.relations import scan
    for n in (2, 3):
        reports, _ = scan(n, AW)
        for r in reports:
            lhs, rhs = star_sides(r.A, r.B, n, AW)
            assert crosscheck_points(lhs, rhs, (2,) * n) == r.holds_star, (r.A, r.B)


# -- the kernel against an independent dense reference -------------------------

def _kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _naive_value(p, v):
    return sum((c * Fraction(v) ** e for e, c in p.d.items()), Fraction(0))


def _dense_evaluate(x, dims, v):
    """Sum over terms of the coefficient, evaluated as a power sum, times
    the Kronecker product of each leg's monomial, multiplied out from the
    module's generator matrices."""
    gens = {d: rep_matrices(d, Fraction(v) ** 2) for d in set(dims)}
    size = prod(dims)
    acc = tuple((Fraction(0),) * size for _ in range(size))
    for key, c in x.terms.items():
        m = ((Fraction(1),),)
        for d, mono in zip(dims, key):
            f, k, e = AW.unpack(mono)
            leg = mat_identity(d)
            for name, p in (("F", f), ("K" if k >= 0 else "Ki", abs(k)), ("E", e)):
                for _ in range(p):
                    leg = mat_mul(leg, gens[d][name])
            m = _kron(m, leg)
        acc = mat_add(acc, m, 1, _naive_value(c.num, v) / _naive_value(c.den, v))
    return acc


_COEFFS = (uq.DINV, -uq.DINV, uq.QM, uq.QP * uq.DINV, vpow(-3), rq((5, 2), (-1, -3)))


def _random_elem(rng, arity):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        key = tuple(AW.pack(rng.randint(0, 3), rng.randint(-3, 3), rng.randint(0, 3))
                    for _ in range(arity))
        terms[key] = rng.choice(_COEFFS)
    return AlgElem(AW, arity, terms)


@pytest.mark.parametrize("v", [Fraction(3, 2), Fraction(5, 7), Fraction(-3, 2), 2], ids=str)
@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2)], ids=str)
def test_kernel_equals_dense_reference(dims, v):
    rng = random.Random(len(dims))
    spec = RepSpec(dims, v)
    zero = AlgElem.zero(AW, len(dims))
    for x in [zero] + [_random_elem(rng, len(dims)) for _ in range(6)]:
        m = evaluate(x, spec)
        assert all(type(e) is Fraction for row in m for e in row)
        assert m == _dense_evaluate(x, dims, v)
    assert mat_is_zero(evaluate(zero, spec))
    # on a two-dimensional leg the Casimir is (v^4 + v^-4) times the
    # identity, so the four nonzero terms of this element cancel
    i = dims.index(2)
    cancel = (AlgElem.casimir(AW).pad(i, len(dims) - 1 - i)
              - AlgElem.scalar(AW, len(dims), rq((4, 1), (-4, 1))))
    assert len(cancel.terms) == 4
    assert mat_is_zero(evaluate(cancel, spec))
    assert mat_is_zero(_dense_evaluate(cancel, dims, v))


def test_crosscheck_equals_fraction_matrix_equality():
    # crosscheck cross-multiplies the two sides' integer sums; it must agree
    # with equality of the evaluated Fraction matrices on holding pairs,
    # failing pairs and zero elements
    n = 3
    zero = AlgElem.zero(AW, n)
    casimir = AlgElem.casimir(AW).pad(0, n - 1)
    scalar = AlgElem.scalar(AW, n, rq((4, 1), (-4, 1)))   # casimir's value on 2 dims
    cases = [(zero, zero), (casimir, scalar), (casimir, scalar + scalar)]
    for A, B in (((1, 2), (2, 3)), ((2, 3), (1, 3)), ((1, 2), (1, 3)), ((1, 3), (2, 3))):
        lhs, rhs = star_sides(A, B, n, AW)
        cases += [(lhs, rhs), (rhs, lhs), (lhs - rhs, zero), (zero, lhs - rhs), (lhs, lhs + lhs)]
    verdicts = []
    for v in DEFAULT_POINTS + (Fraction(-3, 2),):
        spec = RepSpec((2,) * n, v)
        for x, y in cases:
            want = evaluate(x, spec) == evaluate(y, spec)
            assert crosscheck(x, y, spec) == want
            verdicts.append(want)
    assert True in verdicts and False in verdicts
