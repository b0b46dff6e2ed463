"""U_q(sl2) presentation: defining relations, straightening, the Casimir's
normal form, exact coproduct and coaction images, and the relations of the
coideal letters.  The properties every backend shares are in
test_engine."""

import pytest

from awbi import uq_engine as uq
from awbi.pbw import AlgElem, EdgeElem, bracket_q
from awbi.qcoeff import ONE, vpow

from conftest import assert_relations_vanish, generator_maps, letter_maps

AW = uq.AW
E, F, K, Ki = (AlgElem.mono(AW, e)
               for e in ((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, -1, 0)))
LAM = AlgElem.casimir(AW)


def relations(W, unit):
    """The defining relations, each as an element that must vanish, with
    the generators read from W."""
    return [
        W["K"] * W["Ki"] - unit,
        W["K"] * W["E"] - (W["E"] * W["K"]).scale(vpow(4)),
        W["K"] * W["F"] - (W["F"] * W["K"]).scale(vpow(-4)),
        W["E"] * W["F"] - W["F"] * W["E"] - (W["K"] - W["Ki"]).scale(uq.DINV),
    ]


def test_defining_relations():
    # in the algebra, and on the coproducts of the generators
    gens = {"E": E, "F": F, "K": K, "Ki": Ki}
    assert_relations_vanish(relations, generator_maps(AW, gens))


def test_mul_examples():
    # E.F straightens in one step
    assert E * F == F * E + (K - Ki).scale(uq.DINV)
    # E.K = q^-2 K.E
    assert E * K == (K * E).scale(vpow(-4))


def test_e2f_against_single_step_rewriting():
    # oracle: straighten E^2 F by substituting EF -> FE + C twice by hand:
    # E^2 F = E(FE + C) = (EF)E + EC = (FE + C)E + EC
    C = (K - Ki).scale(uq.DINV)
    got = (E * E) * F
    assert got == (F * E) * E + C * E + E * C
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
    assert E.coproduct(1) == AlgElem(AW, 2, {
        (AW.pack(0, 0, 1), AW.pack(0, 0, 0)): ONE,
        (AW.pack(0, 1, 0), AW.pack(0, 0, 1)): ONE,
    })


def test_casimir_coproduct_display():
    # Cas (x) K^-1 + K (x) Cas - (q+q^-1) K (x) K^-1
    #   + (q-q^-1)^2 (E (x) F + q^-2 FK (x) EK^-1)
    display = EdgeElem.casimir_delta(AW).finalize()
    assert display == LAM.coproduct(1)


def test_tau_r_images():
    # tau_R(K^-1) = 1 (x) K^-1 - q^-1 (q-q^-1)^2 F (x) EK^-1
    t = EdgeElem.letter(AW, "R", "Ki").tau_r().finalize()
    expected = (AlgElem.one(AW, 1).pad(0, 1) * Ki.pad(1, 0)
                - (F.pad(0, 1) * (E * Ki).pad(1, 0)).scale(uq.QI * uq.QM2))
    assert t == expected


def test_tau_l_images():
    # tau_L(K) = K (x) 1 - q^-1 (q-q^-1)^2 E (x) FK
    t = EdgeElem.letter(AW, "L", "K").tau_l().finalize()
    expected = K.pad(0, 1) - (E.pad(0, 1) * (F * K).pad(1, 0)).scale(uq.QI * uq.QM2)
    assert t == expected


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
        assert_relations_vanish(rels, letter_maps(AW, side))


def test_tau_on_equal_words_two_ways():
    # K^-1 . EK^-1 and EK^-1 . K^-1 represent proportional elements; their
    # coaction images must match after expansion with the same scalar
    for W, _ in letter_maps(AW, "R"):
        assert W["Ki"] * W["EKi"] == (W["EKi"] * W["Ki"]).scale(vpow(-4))
