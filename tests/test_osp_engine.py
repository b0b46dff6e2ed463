"""osp_q(1|2) presentation: defining relations, parity bookkeeping, the
Casimir's normal form, exact coproduct and coaction images, the ungraded
tensor convention, and the relations of the coideal letters.  The
properties every backend shares are in test_engine."""

import random

import pytest

from awbi import osp_engine as osp
from awbi.pbw import AlgElem, EdgeElem, acc_term
from awbi.qcoeff import vpow

from conftest import assert_relations_vanish, generator_maps, letter_maps

BI = osp.BI
AP, AM, K, KI, P = (AlgElem.mono(BI, e) for e in (
    (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1)))
GAM = AlgElem.casimir(BI)


def relations(W, unit):
    """The defining relations, each as an element that must vanish, with
    the generators read from W."""
    S = (W["K"] * W["K"] - W["Ki"] * W["Ki"]).scale(osp.SINV)
    return [
        W["A+"] * W["A-"] + W["A-"] * W["A+"] - S,
        W["P"] * W["A+"] + W["A+"] * W["P"],
        W["P"] * W["A-"] + W["A-"] * W["P"],
        W["P"] * W["P"] - unit,
        W["P"] * W["K"] - W["K"] * W["P"],
        W["K"] * W["A+"] - (W["A+"] * W["K"]).scale(osp.VH),
        W["K"] * W["A-"] - (W["A-"] * W["K"]).scale(osp.VHI),
        W["K"] * W["Ki"] - unit,
    ]


def test_defining_relations():
    # in the algebra, and on the coproducts of the generators under the
    # ordinary, ungraded tensor product; this pins the sign convention
    gens = {"A+": AP, "A-": AM, "K": K, "Ki": KI, "P": P}
    assert_relations_vanish(relations, generator_maps(BI, gens))


def test_parity_exponent_stays_in_range():
    rng = random.Random(3)
    for _ in range(200):
        m1 = BI.pack(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2),
                     rng.randint(0, 1))
        m2 = BI.pack(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2),
                     rng.randint(0, 1))
        for m, _ in BI.mul_mono(m1, m2):
            assert BI.unpack(m)[3] in (0, 1)


def test_pack_rejects_exponents_outside_the_layout():
    assert BI.unpack(BI.pack(5, 1023, -2048, 1)) == (5, 1023, -2048, 1)
    for exps in ((0, 0, 0, 2), (0, 0, 0, -1), (0, 1024, 0, 0),
                 (0, 0, 2048, 0), (-1, 0, 0, 0), (0, -1, 0, 0)):
        with pytest.raises(ValueError):
            BI.pack(*exps)
    with pytest.raises(ValueError):
        AlgElem.mono(BI, (0, 1023, 0, 0)) * AP


def test_casimir():
    # definition: (-A+A- + (q^-1/2 K^2 - q^1/2 K^-2)/(q - q^-1)) P
    built = (-(AP * AM)
             + (K * K).scale(osp.VHI / osp.QM)
             - (KI * KI).scale(osp.VH / osp.QM)) * P
    assert built == GAM
    for g in (AP, AM, K, P):
        assert (GAM * g - g * GAM).is_zero()
    assert (GAM * GAM * AP - AP * (GAM * GAM)).is_zero()
    assert all(BI.unpack(k[0])[3] == 1 for k in GAM.terms)
    assert GAM.counit(1) == AlgElem.scalar(BI, 0, BI.casimir_counit)


def test_coproduct_generators():
    # Delta(A+ K) = A+K (x) K^2 P + 1 (x) A+K
    apk = AP * K
    expected = (apk.pad(0, 1) * (K * K * P).pad(1, 0)) + apk.pad(1, 0)
    assert apk.coproduct(1) == expected


def test_graded_tensor_convention_fails():
    # negative control: with Koszul signs between the factors the
    # coproduct would NOT respect the anticommutator relation
    def koszul_mul(x, y):
        out = {}
        parity = lambda m: sum(BI.unpack(m)[:2]) & 1
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                sign = parity(k1[1]) * parity(k2[0])
                c = c1 * c2
                if sign:
                    c = -c
                parts = [((), c)]
                for i in range(2):
                    fr = BI.mul_mono(k1[i], k2[i])
                    parts = [(kk + (m,), cc * fc) for kk, cc in parts
                             for m, fc in fr]
                for kk, cc in parts:
                    acc_term(out, kk, cc)
        return AlgElem(BI, 2, out)

    S = (K * K - KI * KI).scale(osp.SINV)
    dAp, dAm = AP.coproduct(1), AM.coproduct(1)
    graded = koszul_mul(dAp, dAm) + koszul_mul(dAm, dAp)
    assert graded != S.coproduct(1)


def test_tau_images():
    # tau_R(K^2 P) = 1 (x) K^2P - (q - q^-1) A+K (x) A-K
    t = EdgeElem.letter(BI, "R", "K2P").tau_r().finalize()
    k2p = K * K * P
    expected = k2p.pad(1, 0) - ((AP * K).pad(0, 1) * (AM * K).pad(1, 0)).scale(osp.QM)
    assert t == expected
    # tau_L(A- K^-1 P) = A-K^-1P (x) K^-2P
    t = EdgeElem.letter(BI, "L", "A-KiP").tau_l().finalize()
    amkip = AM * KI * P
    assert t == amkip.pad(0, 1) * (KI * KI * P).pad(1, 0)


def test_tau_well_defined_on_relations():
    q1, qi = vpow(2), vpow(-2)

    def right(W, unit):
        return [
            W["K2P"] * W["A+K"] + (W["A+K"] * W["K2P"]).scale(q1),
            W["K2P"] * W["A-K"] + (W["A-K"] * W["K2P"]).scale(qi),
            # A+K.A-K + q^-1 A-K.A+K = q^-1/2 (K2P.K2P - 1)/(q^1/2 - q^-1/2)
            W["A+K"] * W["A-K"] + (W["A-K"] * W["A+K"]).scale(qi)
            - (W["K2P"] * W["K2P"] - unit).scale(osp.VHI * osp.SINV),
        ] + [W["Gam"] * W[g] - W[g] * W["Gam"] for g in ("A+K", "A-K", "K2P")]

    def left(W, unit):
        return [
            W["Ki2P"] * W["A+KiP"] + (W["A+KiP"] * W["Ki2P"]).scale(qi),
            W["Ki2P"] * W["A-KiP"] + (W["A-KiP"] * W["Ki2P"]).scale(q1),
            # A+KiP.A-KiP + q A-KiP.A+KiP = -q^1/2 (1 - Ki2P.Ki2P)/(q^1/2 - q^-1/2)
            W["A+KiP"] * W["A-KiP"] + (W["A-KiP"] * W["A+KiP"]).scale(q1)
            + (unit - W["Ki2P"] * W["Ki2P"]).scale(osp.VH * osp.SINV),
        ] + [W["Gam"] * W[g] - W[g] * W["Gam"] for g in ("A+KiP", "A-KiP", "Ki2P")]

    for side, rels in (("R", right), ("L", left)):
        assert_relations_vanish(rels, letter_maps(BI, side))


def test_json_uses_four_field_monomials():
    obj = GAM.to_json()
    assert all(len(t["mono"][0]) == 4 for t in obj["terms"])
    assert AlgElem.from_json(BI, obj) == GAM
