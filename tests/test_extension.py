"""Extension processes: plans, builds, equivalences, empty-set scalars."""

import itertools
import pickle
import re

import pytest

from awbi import osp_engine as osp
from awbi import uq_engine as uq
from awbi.extension import (IndexSet, MorphismPlan, build, derive_empty_scalar,
                            empty_generator, generator, make_plan, plan_derived,
                            plan_left, plan_mixed, plan_right)
from awbi import relations
from awbi.pbw import AlgElem, Backend, CoactionError, bracket_q
from awbi.qcoeff import ONE, vpow

AW, BI = uq.AW, osp.BI


def test_index_set_parse_and_intervals():
    A = IndexSet.parse("1,3-5,8", 9)
    assert A.elements == (1, 3, 4, 5, 8)
    assert A.intervals() == ((1, 1), (3, 5), (8, 8))
    # adjacent ranges merge into one interval
    B = IndexSet.parse("1-2,3,5", 6)
    assert B.intervals() == ((1, 3), (5, 5))
    with pytest.raises(ValueError):
        IndexSet.parse("0,2", 4)
    with pytest.raises(ValueError):
        IndexSet.parse("5", 4)
    with pytest.raises(ValueError):
        IndexSet.parse("x", 4)
    # a range is checked before it is expanded, and the error names it
    with pytest.raises(ValueError, match="2-200000") as err:
        IndexSet.parse("2-200000", 3)
    assert len(str(err.value)) < 200


def test_plan_shapes_for_worked_example():
    A = IndexSet(9, (2, 4, 5, 8))
    # ascending: Delta, tau, Delta, Delta, tau, tau
    assert plan_right(A).steps == (
        ("Delta", 1), ("TauR", 2), ("Delta", 3), ("Delta", 4),
        ("TauR", 5), ("TauR", 6))
    # descending: Delta, tau, tau, Delta, Delta, tau (all at the left edge)
    assert plan_left(A).steps == (
        ("Delta", 1), ("TauL", 1), ("TauL", 1), ("Delta", 1),
        ("Delta", 1), ("TauL", 1))
    assert plan_mixed(A, 2).steps == (
        ("Delta", 1), ("Delta", 2), ("TauR", 3), ("TauR", 4),
        ("Delta", 1), ("TauL", 1))
    assert plan_mixed(A, 1) == plan_right(A)
    assert plan_mixed(A, 4) == plan_left(A)
    with pytest.raises(ValueError):
        plan_mixed(A, 5)


def test_plan_simple_sets():
    n = 3
    assert plan_right(IndexSet(n, (1, 2))).steps == (("Delta", 1),)
    assert plan_right(IndexSet(n, (1, 3))).steps == (("Delta", 1), ("TauR", 2))
    assert plan_left(IndexSet(n, (1, 3))).steps == (("Delta", 1), ("TauL", 1))
    assert plan_right(IndexSet(n, (2,))).steps == ()


def test_plan_validation():
    with pytest.raises(ValueError):
        MorphismPlan((("Delta", 1), ("TauR", 1)))   # rightmost leg is 2 there
    with pytest.raises(ValueError):
        MorphismPlan((("Delta", 1), ("TauL", 2)))
    with pytest.raises(ValueError):
        MorphismPlan((("Delta", 2),))
    # an unknown step kind is refused, not run as a coproduct
    with pytest.raises(ValueError, match="unknown step kind 'Dleta'"):
        MorphismPlan((("Delta", 1), ("Dleta", 2)))


def test_derived_plan_pure_interval_is_coproduct_chain():
    A = IndexSet(4, (1, 2, 3, 4))
    p = plan_derived(A)
    assert all(kind == "Delta" for kind, _ in p.steps)
    assert build(A, AW, p) == build(A, AW, plan_right(A))


def _hole_first_schedule(A):
    """The derived order as the paper writes it, by interval arithmetic:
    the right process on the alternating set {1, 3, ..., 2k-1}, then for
    nn = 2k-2 down to 0 the coproducts on leg nn + 1 that enlarge the
    interval (nn even) or the hole (nn odd) it stands for."""
    a = tuple(x - A.elements[0] + 1 for x in A.elements)
    ivs = IndexSet(a[-1], a).intervals()
    k = len(ivs)
    i_vec = [iv[0] for iv in ivs]
    j_vec = [iv[1] for iv in ivs]
    jk = j_vec[-1]
    steps = list(plan_right(IndexSet(2 * k - 1, tuple(range(1, 2 * k, 2)))).steps)
    for nn in range(2 * k - 2, -1, -1):
        if nn % 2 == 0:
            m = nn // 2 + 1
            alpha = jk - j_vec[m - 1]
            beta = jk - i_vec[m - 1] - 1
        else:
            m = (nn + 3) // 2
            alpha = jk - i_vec[m - 1] + 1
            beta = jk - j_vec[m - 2] - 2
        for _ in range(alpha, beta + 1):
            steps.append(("Delta", nn + 1))
    return tuple(steps)


def test_derived_plan_is_the_hole_first_schedule():
    count = 0
    for n in range(1, 9):
        for r in range(1, n + 1):
            for elems in itertools.combinations(range(1, n + 1), r):
                A = IndexSet(n, elems)
                assert plan_derived(A).steps == _hole_first_schedule(A), elems
                count += 1
    assert count == 502


def test_build_singleton_and_empty():
    n = 3
    g = build(IndexSet(n, (2,)), AW)
    assert g == AlgElem.casimir(AW).pad(1, 1)
    e = empty_generator(AW, n)
    assert e == AlgElem.scalar(AW, n, uq.QP)
    e_bi = empty_generator(BI, 2)
    assert e_bi == AlgElem.scalar(BI, 2, BI.casimir_counit)


def test_build_consecutive_pair_is_coproduct():
    g = build(IndexSet(2, (1, 2)), AW)
    assert g == AlgElem.casimir(AW).coproduct(1)
    g = build(IndexSet(3, (1, 2, 3)), AW)
    assert g == AlgElem.casimir(AW).coproduct(1).coproduct(2)


def test_pair_with_hole_solves_rank_one_relation():
    # the generator for {1,3} is what the first rank-one relation forces:
    # ((q^-2 - q^2))^-1 ([g12, g23]_q - (q-q^-1)(g2 g123 + g1 g3))
    n = 3
    g12 = generator(AW, n, (1, 2))
    g23 = generator(AW, n, (2, 3))
    g123 = generator(AW, n, (1, 2, 3))
    g1, g2, g3 = (generator(AW, n, (i,)) for i in (1, 2, 3))
    w = uq.QI * uq.QI - uq.Q1 * uq.Q1
    solved = (bracket_q(g12, g23, uq.Q1, -uq.QI)
              - (g2 * g123 + g1 * g3).scale(uq.QM)).scale(ONE / w)
    assert solved == generator(AW, n, (1, 3))


def test_process_equivalence_small():
    for backend in (AW, BI):
        for n in (3, 4):
            for r in range(1, n + 1):
                for elems in itertools.combinations(range(1, n + 1), r):
                    A = IndexSet(n, elems)
                    ref = build(A, backend, plan_right(A))
                    assert build(A, backend, plan_left(A)) == ref
                    for j in range(1, len(elems) + 1):
                        assert build(A, backend, plan_mixed(A, j)) == ref
                    assert build(A, backend, plan_derived(A)) == ref


def test_derived_equivalence_two_intervals_in_five():
    for elems in (((1, 2, 4)), ((1, 2, 4, 5)), ((1, 3, 4, 5)), ((2, 4, 5)),
                  ((1, 4)), ((1, 5)), ((1, 2, 5)), ((1, 3, 5))):
        A = IndexSet(5, tuple(elems))
        assert build(A, AW, plan_derived(A)) == build(A, AW, plan_right(A))


def test_derived_equivalence_three_intervals():
    # the hole-first schedule is not limited to two intervals
    for elems, n in (((1, 2, 4, 6, 7), 7), ((1, 3, 5, 6), 6),
                     ((2, 4, 6), 6), ((1, 2, 4, 5, 7), 7)):
        A = IndexSet(n, elems)
        for backend in (AW, BI):
            assert build(A, backend, plan_derived(A)) \
                == build(A, backend, plan_right(A))


def test_executor_rejects_coaction_after_normalization():
    # a plan whose interior coproduct normalizes the element cannot be
    # followed by a coaction; the plan is refused when it is constructed
    with pytest.raises(CoactionError):
        plan = MorphismPlan((("Delta", 1), ("Delta", 1), ("Delta", 2), ("TauR", 4)))
        build(IndexSet(5, (1, 2, 3, 4, 5)), AW, plan)


def test_plan_rules_are_checked_at_construction():
    # a plan opens with the Casimir's coproduct, not a coaction
    for kind in ("TauR", "TauL"):
        with pytest.raises(CoactionError, match="start with the coproduct"):
            MorphismPlan(((kind, 1),))
    # no coaction after a coproduct on an interior leg (1 < pos < arity)
    with pytest.raises(CoactionError, match="normalized leg"):
        MorphismPlan((("Delta", 1), ("Delta", 1), ("Delta", 2), ("TauL", 1)))
    # coproducts at the edges keep the legs letters, so coactions may follow
    MorphismPlan((("Delta", 1), ("Delta", 1), ("Delta", 3), ("TauR", 4), ("TauL", 1)))


def test_build_rejects_a_plan_that_does_not_span_the_set():
    A = IndexSet(5, (1, 3))
    for plan in (plan_right(IndexSet(5, (1, 2))), plan_right(IndexSet(5, (1, 4)))):
        with pytest.raises(ValueError, match="plan arity does not match the set span"):
            build(A, AW, plan)


def test_index_set_rejects_non_integers():
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match=re.escape(f"element {bad!r} is not an integer")):
            IndexSet(3, (bad,))


def test_padding_naturality():
    for backend in (AW, BI):
        g4 = build(IndexSet(4, (2, 4)), backend)
        g5 = build(IndexSet(5, (2, 4)), backend)
        assert g4.pad(0, 1) == g5
        g5l = build(IndexSet(5, (3, 5)), backend)
        assert g4.pad(1, 0) == g5l


def test_generator_cache_returns_same_object():
    a = generator(AW, 3, (1, 3))
    b = generator(AW, 3, (3, 1))
    assert a is b


def test_caches_key_by_backend_identity():
    # a mutant that keeps AW's name (AW's tables, the F coproduct scaled by
    # q) gets its own generator and products, not AW's cached ones, with
    # no clear_cache() in between; {1,2,3} is built with a letter
    # coproduct, which the mutation changes ({1,3} uses the coaction only)
    gen_delta = tuple(None if g is None else
                      {k: c * vpow(2) if i == 0 else c for k, c in g.items()}
                      for i, g in enumerate(AW.gen_delta))
    mutant = Backend("aw", AW.field_names, AW.pack, AW.unpack, uq._mul_mono,
                     gen_delta, AW.casimir, AW.alphabets, AW.casimir_delta,
                     AW.rescaling, AW.relation)
    A, B = (1, 2, 3), (1, 3)
    g_aw, p_aw = generator(AW, 3, A), relations._prod(AW, 3, A, B)
    g_mutant = generator(mutant, 3, A)
    assert g_mutant.backend is mutant and g_mutant.terms != g_aw.terms
    assert g_mutant == build(IndexSet(3, A), mutant)
    assert relations._prod(mutant, 3, A, B).terms != p_aw.terms
    assert generator(AW, 3, A) is g_aw
    # the module backend still travels by name; the mutant refuses to
    # travel rather than arrive as AW
    assert pickle.loads(pickle.dumps(AW)) is AW
    with pytest.raises(TypeError, match="not a module backend"):
        pickle.dumps(mutant)


def test_make_plan_dispatch():
    A = IndexSet(4, (1, 3))
    assert make_plan(A, "right") == plan_right(A)
    assert make_plan(A, "left") == plan_left(A)
    assert make_plan(A, "mixed:2") == plan_mixed(A, 2)
    assert make_plan(A, "derived") == plan_derived(A)
    with pytest.raises(ValueError):
        make_plan(A, "sideways")
    # the empty set has no plan, but its process name is still checked
    assert make_plan(IndexSet(4, ()), "derived") is None
    with pytest.raises(ValueError, match="unknown process 'sideways'"):
        make_plan(IndexSet(4, ()), "sideways")


def test_empty_scalar_derivations():
    # the same linear solve recovers the known scalar on the first backend
    # and fixes the super-side constant
    assert derive_empty_scalar(AW) == uq.QP
    assert derive_empty_scalar(BI) == BI.casimir_counit
    # the derived scalar is the stored one, hash included
    for b in (AW, BI):
        c = derive_empty_scalar(b)
        assert c == b.casimir_counit and hash(c) == hash(b.casimir_counit)
    # and the casimir counit agrees with the stored scalar on both
    assert AlgElem.casimir(AW).counit(1) == AlgElem.scalar(AW, 0, AW.casimir_counit)
    assert AlgElem.casimir(BI).counit(1) == AlgElem.scalar(BI, 0, BI.casimir_counit)


def test_worked_example_n9_all_processes_agree():
    A = IndexSet(9, (2, 4, 5, 8))
    ref = build(A, AW, plan_right(A))
    assert build(A, AW, plan_left(A)) == ref
    assert build(A, AW, plan_mixed(A, 2)) == ref
