"""U_q(sl2) engine: straightening, Hopf structure, coactions, coideals."""

import random

import pytest

from awbi import uq_engine as uq
from awbi.pbw import (AlgElem, Alphabet, Backend, EdgeElem, CoactionError,
                      bracket_q)
from awbi.qcoeff import ONE, ZERO, vpow

AW = uq.AW
E, F, K, Ki = (AlgElem.mono(AW, e)
               for e in ((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0)))
LAM = AlgElem.casimir(AW)


def test_defining_relations():
    assert K * Ki == AlgElem.one(AW, 1)
    assert K * E == (E * K).scale(vpow(4))
    assert K * F == (F * K).scale(vpow(-4))
    assert E * F - F * E == (K - Ki).scale(uq.DINV)


def test_mono_with_zero_coefficient_is_zero():
    assert AlgElem.mono(AW, (0, 0, 1), ZERO) == AlgElem.zero(AW, 1)
    lat = AW.lattice
    assert AlgElem.mono(lat, (0, 0, 1), lat.zero).is_zero()


def test_mul_examples():
    # E.F straightens in one step
    assert E * F == F * E + (K - Ki).scale(uq.DINV)
    # E.K = q^-2 K.E
    assert E * K == (K * E).scale(vpow(-4))


def test_e2f_against_single_step_rewriting():
    # oracle: straighten E^2 F by substituting EF -> FE + C twice by hand
    C = (K - Ki).scale(uq.DINV)
    expected = (F * E + C) * E      # E(EF) = E(FE + C) = (EF)E + EC = ...
    got = (E * E) * F
    # E^2 F = E(FE + C) = (EF)E + EC = (FE + C)E + EC
    expected = (F * E) * E + C * E + E * C
    assert got == expected
    urc = [AW.unpack(k[0]) for k in got.terms]
    assert all(f >= 0 and e >= 0 for f, _, e in urc)


def test_pack_rejects_exponents_outside_the_layout():
    assert AW.unpack(AW.pack(5, -2048, 1023)) == (5, -2048, 1023)
    for exps in ((0, 0, 1024), (0, 2048, 0), (0, -2049, 0), (-1, 0, 0),
                 (0, 0, -1)):
        with pytest.raises(ValueError):
            AW.pack(*exps)
    with pytest.raises(ValueError):
        AlgElem.mono(AW, (0, 0, 1023)) * E


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        LAM * LAM.coproduct(1)


def test_q_comm():
    x = F * E
    assert bracket_q(x, x, uq.Q1, -uq.QI) == (x * x).scale(uq.QM)
    assert bracket_q(E, F, ONE, -ONE) == (K - Ki).scale(uq.DINV)


def test_casimir_normal_form_and_centrality():
    assert LAM == (F * E).scale(uq.QM2) + K.scale(uq.Q1) + Ki.scale(uq.QI)
    for g in (E, F, K, Ki):
        assert (LAM * g - g * LAM).is_zero()
    assert LAM.counit(1) == AlgElem.scalar(AW, 0, uq.QP)


def test_coproduct_generators():
    assert K.coproduct(1) == AlgElem(AW, 2, {(AW.pack(0, 1, 0),) * 2: ONE})
    one2 = AlgElem.one(AW, 1).coproduct(1)
    assert one2 == AlgElem.one(AW, 2)
    dE = E.coproduct(1)
    assert dE == AlgElem(AW, 2, {
        (AW.pack(0, 0, 1), AW.pack(0, 0, 0)): ONE,
        (AW.pack(0, 1, 0), AW.pack(0, 0, 1)): ONE,
    })


def test_casimir_coproduct_display():
    # Cas (x) K^-1 + K (x) Cas - (q+q^-1) K (x) K^-1
    #   + (q-q^-1)^2 (E (x) F + q^-2 FK (x) EK^-1)
    display = EdgeElem.casimir_delta(AW).finalize()
    assert display == LAM.coproduct(1)


def test_coproduct_is_algebra_morphism():
    for g, w in ((E, vpow(4)), (F, vpow(-4))):
        lhs = (K * g).coproduct(1)
        rhs = (g * K).coproduct(1).scale(w)
        assert lhs == rhs
    assert (K * Ki).coproduct(1) == AlgElem.one(AW, 2)
    lhs = (E * F - F * E).coproduct(1)
    assert lhs == (K - Ki).scale(uq.DINV).coproduct(1)
    rng = random.Random(42)
    for _ in range(50):
        x = AlgElem.mono(AW, (rng.randint(0, 2), rng.randint(-2, 2),
                              rng.randint(0, 2)))
        y = AlgElem.mono(AW, (rng.randint(0, 2), rng.randint(-2, 2),
                              rng.randint(0, 2)))
        assert (x * y).coproduct(1) == x.coproduct(1) * y.coproduct(1)


def test_coassociativity_and_counit_axioms():
    for g in (E, F, K, Ki, LAM):
        d = g.coproduct(1)
        assert d.coproduct(2) == d.coproduct(1)
        assert d.counit(1) == g
        assert d.counit(2) == g


def test_counit_values():
    assert E.counit(1).is_zero()
    assert F.counit(1).is_zero()
    assert Ki.counit(1) == AlgElem.one(AW, 0)


def test_position_out_of_range():
    with pytest.raises(ValueError):
        LAM.coproduct(2)
    with pytest.raises(ValueError):
        LAM.counit(0)


def test_associativity_randomized():
    rng = random.Random(7)
    for _ in range(60):
        def r_elem():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                key = tuple(AW.pack(rng.randint(0, 3), rng.randint(-3, 3),
                                    rng.randint(0, 3)) for _ in range(2))
                terms[key] = vpow(rng.randint(-2, 2))
            return AlgElem(AW, 2, terms)
        a, b, c = r_elem(), r_elem(), r_elem()
        assert (a * b) * c == a * (b * c)


def test_tau_r_images():
    # tau_R(Cas) = 1 (x) Cas
    t = EdgeElem.letter(AW, "R", "Lam").tau_r()
    assert t.finalize() == LAM.pad(1, 0)
    # tau_R(K^-1) = 1 (x) K^-1 - q^-1 (q-q^-1)^2 F (x) EK^-1
    t = EdgeElem.letter(AW, "R", "Ki").tau_r().finalize()
    expected = (AlgElem.one(AW, 1).pad(0, 1) * Ki.pad(1, 0)
                - (F.pad(0, 1) * (E * Ki).pad(1, 0)).scale(uq.QI * uq.QM2))
    assert t == expected


def test_tau_l_images():
    t = EdgeElem.letter(AW, "L", "Lam").tau_l().finalize()
    assert t == LAM.pad(0, 1)
    # tau_L(K) = K (x) 1 - q^-1 (q-q^-1)^2 E (x) FK
    t = EdgeElem.letter(AW, "L", "K").tau_l().finalize()
    expected = K.pad(0, 1) - (E.pad(0, 1) * (F * K).pad(1, 0)).scale(uq.QI * uq.QM2)
    assert t == expected
    # (1 (x) eps) tau_L = id on FK
    x = EdgeElem.letter(AW, "L", "FK")
    assert x.tau_l().counit_mid(2).finalize() == x.finalize()


def test_comodule_axioms():
    for g in AW.alphabets["R"].letters:
        t = EdgeElem.letter(AW, "R", g).tau_r()
        assert t.tau_r().finalize() == t.delta_mid(1).finalize()
        assert t.counit_mid(1).finalize() == EdgeElem.letter(AW, "R", g).finalize()
    for g in AW.alphabets["L"].letters:
        t = EdgeElem.letter(AW, "L", g).tau_l()
        assert t.tau_l().finalize() == t.delta_mid(2).finalize()
        assert t.counit_mid(2).finalize() == EdgeElem.letter(AW, "L", g).finalize()


def test_coideal_property_tables():
    # the coproduct and the coaction of every alphabet letter keep their
    # retained leg a single letter of the alphabet; expanding the coproduct
    # table must agree with the engine coproduct
    for side in ("R", "L"):
        alpha = AW.alphabets[side]
        for g in alpha.letters:
            x = EdgeElem.letter(AW, side, g)
            table = x.delta_r() if side == "R" else x.delta_l()
            tau = x.tau_r() if side == "R" else x.tau_l()
            for key in (*table.terms, *tau.terms):
                assert (key[-1] if side == "R" else key[0]) in alpha.letters
            assert table.finalize() == x.finalize().coproduct(1)


def test_letter_outside_its_alphabet_is_rejected():
    with pytest.raises(ValueError, match="E is not a side-R letter"):
        EdgeElem.letter(AW, "R", "E")
    with pytest.raises(ValueError, match="EKi is not a side-L letter"):
        EdgeElem.letter(AW, "L", "EKi")


def test_letter_coproduct_outside_the_alphabet_is_rejected():
    # give the right letter F the monomial of E: Delta(E) = E (x) 1 + K (x) E
    # keeps the identity on the right, and the identity is no right letter
    R, L = AW.alphabets["R"], AW.alphabets["L"]
    bad_pbw = dict(R.pbw, F={AW.pack(0, 0, 1): ONE})
    alphabets = {"R": Alphabet(R.letters, bad_pbw, R.tau),
                 "L": Alphabet(L.letters, L.pbw, L.tau)}
    with pytest.raises(ValueError, match="side-R letter F "):
        Backend("aw-bad", AW.field_names, AW.pack, AW.unpack, uq._mul_mono,
                AW.gen_delta, AW.casimir, alphabets, AW.casimir_delta,
                AW.rescaling, AW.relation)


def test_backend_keeps_its_own_alphabets():
    # a mutant built from AW's alphabets, with a scaled F coproduct, derives
    # its letter-coproduct tables into its own copies, not into AW's
    before = {side: dict(AW.alphabets[side].delta) for side in ("R", "L")}
    image = EdgeElem.letter(AW, "R", "F").delta_r().finalize()
    gen_delta = tuple(None if g is None else
                      {k: c * vpow(2) if i == 0 else c for k, c in g.items()}
                      for i, g in enumerate(AW.gen_delta))
    mutant = Backend("aw-mutant", AW.field_names, AW.pack, AW.unpack, uq._mul_mono,
                     gen_delta, AW.casimir, AW.alphabets, AW.casimir_delta,
                     AW.rescaling, AW.relation)
    assert mutant.alphabets["R"].delta["F"] != before["R"]["F"]
    assert {side: AW.alphabets[side].delta for side in ("R", "L")} == before
    assert EdgeElem.letter(AW, "R", "F").delta_r().finalize() == image


def letter_maps(backend, side):
    """Two ways to evaluate a word over one alphabet, each as (letter map,
    unit): every letter sent to its normal form, and every letter sent to
    its finalized coaction image.  The image of a word is the product of its
    letters' images, because the tensor product carries no signs
    (Backend.mul_terms)."""
    letters = {g: EdgeElem.letter(backend, side, g)
               for g in backend.alphabets[side].letters}
    tau = EdgeElem.tau_r if side == "R" else EdgeElem.tau_l
    return (({g: x.finalize() for g, x in letters.items()}, AlgElem.one(backend, 1)),
            ({g: tau(x).finalize() for g, x in letters.items()}, AlgElem.one(backend, 2)))


def test_tau_well_defined_on_relations():
    q2, qm2 = vpow(4), vpow(-4)

    def right(W, unit):
        return [
            W["Ki"] * W["EKi"] - (W["EKi"] * W["Ki"]).scale(qm2),
            W["Ki"] * W["F"] - (W["F"] * W["Ki"]).scale(q2),
            W["EKi"] * W["F"] - (W["F"] * W["EKi"]).scale(q2)
            - (unit - W["Ki"] * W["Ki"]).scale(q2 * uq.DINV),
        ] + [W["Lam"] * W[g] - W[g] * W["Lam"] for g in ("EKi", "F", "Ki")]

    def left(W, unit):
        return [
            W["K"] * W["E"] - (W["E"] * W["K"]).scale(q2),
            W["K"] * W["FK"] - (W["FK"] * W["K"]).scale(qm2),
            W["E"] * W["FK"] - (W["FK"] * W["E"]).scale(qm2)
            - (W["K"] * W["K"] - unit).scale(uq.DINV),
        ] + [W["Lam"] * W[g] - W[g] * W["Lam"] for g in ("E", "FK", "K")]

    for side, rels in (("R", right), ("L", left)):
        for W, unit in letter_maps(AW, side):
            for r in rels(W, unit):
                assert r.is_zero()


def test_tau_on_equal_words_two_ways():
    # K^-1 . EK^-1 and EK^-1 . K^-1 represent proportional elements; their
    # coaction images must match after expansion with the same scalar
    for W, _ in letter_maps(AW, "R"):
        assert W["Ki"] * W["EKi"] == (W["EKi"] * W["Ki"]).scale(vpow(-4))


def test_cotensor_property():
    seed = EdgeElem.casimir_delta(AW)
    assert seed.tau_r().finalize() == seed.tau_l().finalize()


def test_interchange_of_disjoint_morphisms():
    seed = EdgeElem.casimir_delta(AW)
    # right coaction then left coaction, against the opposite order
    assert seed.tau_r().tau_l().finalize() == seed.tau_l().tau_r().finalize()
    # coproduct on the left edge against coaction on the right edge
    assert seed.delta_l().tau_r().finalize() == seed.tau_r().delta_l().finalize()
    # coproducts on the two edges
    assert seed.delta_l().delta_r().finalize() == seed.delta_r().delta_l().finalize()


def test_iterated_coaction_equals_leading_coproducts():
    # (1^2 (x) tauR)(1 (x) tauR) tauR = (Delta (x) 1^2)(Delta (x) 1) tauR
    # on each right letter; the same exchange drives gap-widening rewrites
    for g in AW.alphabets["R"].letters:
        t = EdgeElem.letter(AW, "R", g).tau_r()
        lhs = t.tau_r().tau_r().finalize()
        rhs = t.delta_mid(1).delta_mid(1).finalize()
        assert lhs == rhs
    seed = EdgeElem.casimir_delta(AW)
    lhs = seed.tau_r().tau_r().tau_r().finalize()
    rhs = seed.tau_r().delta_mid(2).delta_mid(2).finalize()
    assert lhs == rhs


def test_coaction_on_normalized_leg_rejected():
    t = EdgeElem.letter(AW, "R", "F").tau_r()
    with pytest.raises(CoactionError):
        t.tau_l()


def test_element_json_roundtrip():
    x = LAM.coproduct(1)
    obj = x.to_json()
    assert AlgElem.from_json(AW, obj) == x
    assert obj["arity"] == 2
    # every term must have one leg per tensor factor
    coeff = obj["terms"][0]["coeff"]
    bad = {"arity": 3, "terms": [{"mono": [[0, 0, 1]], "coeff": coeff}]}
    with pytest.raises(ValueError, match="does not have 3 legs"):
        AlgElem.from_json(AW, bad)
