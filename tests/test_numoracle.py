"""Numeric cross-validation in exact rational representations."""

import random
from fractions import Fraction

import pytest

from awbi import uq_engine as uq
from awbi import osp_engine as osp
from awbi.extension import generator
from awbi.numoracle import (DEFAULT_POINTS, RepSpec, crosscheck,
                            crosscheck_points, evaluate, mat_add, mat_identity,
                            mat_is_zero, mat_mul, mat_scale, rep_matrices)
from awbi.pbw import AlgElem
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
