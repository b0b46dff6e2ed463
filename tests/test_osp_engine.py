"""osp_q(1|2) engine: parity bookkeeping, Hopf structure, coactions."""

import random

import pytest

from awbi import osp_engine as osp
from awbi.pbw import AlgElem, EdgeElem, acc_term
from awbi.qcoeff import ONE, vpow

from test_uq_engine import letter_maps

BI = osp.BI
AP, AM, K, KI, P = (AlgElem.mono(BI, e) for e in (
    (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1)))
GAM = AlgElem.casimir(BI)


def test_defining_relations():
    S = (K * K - KI * KI).scale(osp.SINV)
    assert AP * AM + AM * AP == S
    assert P * AP == -(AP * P)
    assert P * AM == -(AM * P)
    assert P * P == AlgElem.one(BI, 1)
    assert P * K == K * P
    assert K * AP == (AP * K).scale(osp.VH)
    assert K * AM == (AM * K).scale(osp.VHI)
    assert K * KI == AlgElem.one(BI, 1)


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
    assert P.coproduct(1) == AlgElem(BI, 2, {(BI.pack(0, 0, 0, 1),) * 2: ONE})
    # Delta(A+ K) = A+K (x) K^2 P + 1 (x) A+K
    apk = AP * K
    expected = (apk.pad(0, 1) * (K * K * P).pad(1, 0)) + apk.pad(1, 0)
    assert apk.coproduct(1) == expected


def test_coproduct_is_algebra_morphism():
    # the anticommutator relation survives the coproduct under the
    # ordinary, ungraded tensor product; this pins the sign convention
    S = (K * K - KI * KI).scale(osp.SINV)
    dAp, dAm = AP.coproduct(1), AM.coproduct(1)
    assert dAp * dAm + dAm * dAp == S.coproduct(1)
    dP = P.coproduct(1)
    assert dP * dAp == -(dAp * dP)
    assert dP * dP == AlgElem.one(BI, 2)
    rng = random.Random(11)
    for _ in range(50):
        x = AlgElem.mono(BI, (rng.randint(0, 2), rng.randint(0, 2),
                              rng.randint(-2, 2), rng.randint(0, 1)))
        y = AlgElem.mono(BI, (rng.randint(0, 2), rng.randint(0, 2),
                              rng.randint(-2, 2), rng.randint(0, 1)))
        assert (x * y).coproduct(1) == x.coproduct(1) * y.coproduct(1)


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


def test_coassociativity_and_counit_axioms():
    for g in (AP, AM, K, KI, P, GAM):
        d = g.coproduct(1)
        assert d.coproduct(2) == d.coproduct(1)
        assert d.counit(1) == g
        assert d.counit(2) == g


def test_counit_values():
    assert AP.counit(1).is_zero()
    assert P.counit(1) == AlgElem.one(BI, 0)
    assert KI.counit(1) == AlgElem.one(BI, 0)


def test_casimir_coproduct_in_coideal_alphabets():
    # the display used as the construction seed must match the engine, and
    # both its legs must be expressible in the coideal alphabets
    seed = EdgeElem.casimir_delta(BI)
    assert seed.finalize() == GAM.coproduct(1)
    for (gl, gr) in seed.terms:
        assert gl in BI.alphabets["L"].letters
        assert gr in BI.alphabets["R"].letters


def test_tau_images():
    t = EdgeElem.letter(BI, "R", "Gam").tau_r().finalize()
    assert t == GAM.pad(1, 0)
    # tau_R(K^2 P) = 1 (x) K^2P - (q - q^-1) A+K (x) A-K
    t = EdgeElem.letter(BI, "R", "K2P").tau_r().finalize()
    k2p = K * K * P
    expected = k2p.pad(1, 0) - ((AP * K).pad(0, 1) * (AM * K).pad(1, 0)).scale(osp.QM)
    assert t == expected
    # (eps (x) 1) tau_R = id on A+K
    x = EdgeElem.letter(BI, "R", "A+K")
    assert x.tau_r().counit_mid(1).finalize() == x.finalize()
    # tau_L(A- K^-1 P) = A-K^-1P (x) K^-2P
    t = EdgeElem.letter(BI, "L", "A-KiP").tau_l().finalize()
    amkip = AM * KI * P
    assert t == amkip.pad(0, 1) * (KI * KI * P).pad(1, 0)


def test_comodule_axioms():
    for g in BI.alphabets["R"].letters:
        t = EdgeElem.letter(BI, "R", g).tau_r()
        assert t.tau_r().finalize() == t.delta_mid(1).finalize()
        assert t.counit_mid(1).finalize() == EdgeElem.letter(BI, "R", g).finalize()
    for g in BI.alphabets["L"].letters:
        t = EdgeElem.letter(BI, "L", g).tau_l()
        assert t.tau_l().finalize() == t.delta_mid(2).finalize()
        assert t.counit_mid(2).finalize() == EdgeElem.letter(BI, "L", g).finalize()


def test_coideal_property_tables():
    for side in ("R", "L"):
        alpha = BI.alphabets[side]
        for g in alpha.letters:
            x = EdgeElem.letter(BI, side, g)
            table = x.delta_r() if side == "R" else x.delta_l()
            tau = x.tau_r() if side == "R" else x.tau_l()
            for key in (*table.terms, *tau.terms):
                assert (key[-1] if side == "R" else key[0]) in alpha.letters
            assert table.finalize() == x.finalize().coproduct(1)


def test_letter_outside_its_alphabet_is_rejected():
    with pytest.raises(ValueError, match="Ki2P is not a side-R letter"):
        EdgeElem.letter(BI, "R", "Ki2P")
    with pytest.raises(ValueError, match="K2P is not a side-L letter"):
        EdgeElem.letter(BI, "L", "K2P")


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
        for W, unit in letter_maps(BI, side):
            for r in rels(W, unit):
                assert r.is_zero()


def test_cotensor_property():
    seed = EdgeElem.casimir_delta(BI)
    assert seed.tau_r().finalize() == seed.tau_l().finalize()


def test_associativity_randomized():
    rng = random.Random(13)
    for _ in range(40):
        def r_elem():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                key = tuple(BI.pack(rng.randint(0, 2), rng.randint(0, 2),
                                    rng.randint(-2, 2), rng.randint(0, 1))
                            for _ in range(2))
                terms[key] = vpow(rng.randint(-2, 2))
            return AlgElem(BI, 2, terms)
        a, b, c = r_elem(), r_elem(), r_elem()
        assert (a * b) * c == a * (b * c)


def test_json_uses_four_field_monomials():
    obj = GAM.to_json()
    assert all(len(t["mono"][0]) == 4 for t in obj["terms"])
    assert AlgElem.from_json(BI, obj) == GAM
