"""Properties every backend must have, each checked once on aw and on bi:
Hopf axioms, coactions and coideal letters, the element API and its JSON
form.  Each backend's presentation (defining relations, exact images, the
Casimir's normal form, the pack layout) is checked in test_uq_engine and
test_osp_engine."""

import random
from dataclasses import dataclass

import pytest

from awbi import osp_engine as osp
from awbi import uq_engine as uq
from awbi.pbw import AlgElem, Alphabet, Backend, CoactionError, EdgeElem
from awbi.qcoeff import ONE, ZERO, vpow


@dataclass(frozen=True)
class Case:
    """The data a backend-independent check needs from one backend."""

    backend: Backend
    gens: dict               # generator name -> field exponents
    group_like: frozenset    # names of the group-like generators
    casimir_letter: str      # the letter of both alphabets that is the Casimir
    foreign: dict            # side -> a name that is no letter of that side
    mutant: str              # right letter whose coproduct a scaled first field changes
    bad_pbw: tuple           # (right letter, exponents whose coproduct keeps a non-letter)
    morphism: tuple          # (seed, rounds, exponent ranges) of the random monomials
    associativity: tuple     # (seed, rounds, exponent ranges) of the random terms

    def generators(self):
        return {g: AlgElem.mono(self.backend, e) for g, e in self.gens.items()}

    def casimir(self):
        return AlgElem.casimir(self.backend)


CASES = (
    Case(uq.AW,
         gens={"E": (0, 0, 1), "F": (1, 0, 0), "K": (0, 1, 0), "Ki": (0, -1, 0)},
         group_like=frozenset({"K", "Ki"}), casimir_letter="Lam",
         foreign={"R": "E", "L": "EKi"}, mutant="F",
         # Delta(E) = E (x) 1 + K (x) E keeps the identity on the right
         bad_pbw=("F", (0, 0, 1)),
         morphism=(42, 50, ((0, 2), (-2, 2), (0, 2))),
         associativity=(7, 60, ((0, 3), (-3, 3), (0, 3)))),
    Case(osp.BI,
         gens={"A+": (0, 1, 0, 0), "A-": (1, 0, 0, 0), "K": (0, 0, 1, 0),
               "Ki": (0, 0, -1, 0), "P": (0, 0, 0, 1)},
         group_like=frozenset({"K", "Ki", "P"}), casimir_letter="Gam",
         foreign={"R": "Ki2P", "L": "K2P"}, mutant="A-K",
         # Delta(A+) keeps K P on the right
         bad_pbw=("A-K", (0, 1, 0, 0)),
         morphism=(11, 50, ((0, 2), (0, 2), (-2, 2), (0, 1))),
         associativity=(13, 40, ((0, 2), (0, 2), (-2, 2), (0, 1)))),
)


@pytest.fixture(params=CASES, ids=lambda case: case.backend.name)
def case(request):
    return request.param


def random_exps(rng, ranges):
    return tuple(rng.randint(lo, hi) for lo, hi in ranges)


def rebuild(case, name, gen_delta=None, alphabets=None):
    """A backend from the case's tables, with gen_delta or alphabets
    replaced."""
    b = case.backend
    return Backend(name, b.field_names, b.pack, b.unpack, b._mul_mono_raw,
                   gen_delta or b.gen_delta, b.casimir, alphabets or b.alphabets,
                   b.casimir_delta, b.rescaling, b.relation)


# -- elements ------------------------------------------------------------------

def test_mono_with_zero_coefficient_is_zero(case):
    b = case.backend
    exps = next(iter(case.gens.values()))
    assert AlgElem.mono(b, exps, ZERO) == AlgElem.zero(b, 1)
    lat = b.lattice
    assert AlgElem.mono(lat, exps, lat.zero).is_zero()


def test_elements_are_unhashable(case):
    seed = EdgeElem.casimir_delta(case.backend)
    for x in (case.casimir(), seed.finalize(), seed):
        with pytest.raises(TypeError):
            hash(x)


def test_arity_mismatch_raises(case):
    cas = case.casimir()
    with pytest.raises(ValueError):
        cas * cas.coproduct(1)


def test_position_out_of_range(case):
    cas = case.casimir()
    with pytest.raises(ValueError):
        cas.coproduct(2)
    with pytest.raises(ValueError):
        cas.counit(0)


def test_associativity_randomized(case):
    backend = case.backend
    seed, rounds, ranges = case.associativity
    rng = random.Random(seed)

    def r_elem():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            key = tuple(backend.pack(*random_exps(rng, ranges)) for _ in range(2))
            terms[key] = vpow(rng.randint(-2, 2))
        return AlgElem(backend, 2, terms)

    for _ in range(rounds):
        a, b, c = r_elem(), r_elem(), r_elem()
        assert (a * b) * c == a * (b * c)


def test_element_json_roundtrip(case):
    b, cas = case.backend, case.casimir()
    for x in (cas, cas.coproduct(1)):
        obj = x.to_json()
        assert AlgElem.from_json(b, obj) == x
        assert obj["arity"] == x.arity
        assert all(len(leg) == len(b.field_names)
                   for t in obj["terms"] for leg in t["mono"])
    # every term must have one leg per tensor factor
    term = obj["terms"][0]
    bad = {"arity": 3, "terms": [{"mono": term["mono"][:1], "coeff": term["coeff"]}]}
    with pytest.raises(ValueError, match="does not have 3 legs"):
        AlgElem.from_json(b, bad)


# -- Hopf structure ------------------------------------------------------------

def test_casimir_is_central(case):
    cas = case.casimir()
    cas2 = cas * cas
    for g in case.generators().values():
        assert (cas * g - g * cas).is_zero()
        assert (cas2 * g - g * cas2).is_zero()


def test_unit_group_likes_and_counit_values(case):
    b = case.backend
    assert AlgElem.one(b, 1).coproduct(1) == AlgElem.one(b, 2)
    for name, g in case.generators().items():
        if name in case.group_like:
            m = b.pack(*case.gens[name])
            assert g.coproduct(1) == AlgElem(b, 2, {(m, m): ONE})
            assert g.counit(1) == AlgElem.one(b, 0)
        else:
            assert g.counit(1).is_zero()


def test_coproduct_is_algebra_morphism(case):
    b = case.backend
    seed, rounds, ranges = case.morphism
    rng = random.Random(seed)
    for _ in range(rounds):
        x = AlgElem.mono(b, random_exps(rng, ranges))
        y = AlgElem.mono(b, random_exps(rng, ranges))
        assert (x * y).coproduct(1) == x.coproduct(1) * y.coproduct(1)


def test_coassociativity_and_counit_axioms(case):
    for g in (*case.generators().values(), case.casimir()):
        d = g.coproduct(1)
        assert d.coproduct(2) == d.coproduct(1)
        assert d.counit(1) == g
        assert d.counit(2) == g


# -- coactions and coideal letters ---------------------------------------------

def test_casimir_coproduct_in_coideal_alphabets(case):
    # the display used as the construction seed must match the engine, and
    # both its legs must be letters of the coideal alphabets
    b = case.backend
    seed = EdgeElem.casimir_delta(b)
    assert seed.finalize() == case.casimir().coproduct(1)
    for gl, gr in seed.terms:
        assert gl in b.alphabets["L"].letters
        assert gr in b.alphabets["R"].letters


def test_casimir_letter_is_coinvariant(case):
    b, cas, g = case.backend, case.casimir(), case.casimir_letter
    assert EdgeElem.letter(b, "R", g).tau_r().finalize() == cas.pad(1, 0)
    assert EdgeElem.letter(b, "L", g).tau_l().finalize() == cas.pad(0, 1)


def test_comodule_axioms(case):
    b = case.backend
    for g in b.alphabets["R"].letters:
        t = EdgeElem.letter(b, "R", g).tau_r()
        assert t.tau_r().finalize() == t.delta_mid(1).finalize()
        assert t.counit_mid(1).finalize() == EdgeElem.letter(b, "R", g).finalize()
    for g in b.alphabets["L"].letters:
        t = EdgeElem.letter(b, "L", g).tau_l()
        assert t.tau_l().finalize() == t.delta_mid(2).finalize()
        assert t.counit_mid(2).finalize() == EdgeElem.letter(b, "L", g).finalize()


def test_coideal_property_tables(case):
    # the coproduct and the coaction of every alphabet letter keep their
    # retained leg a single letter of the alphabet; expanding the coproduct
    # table must agree with the engine coproduct
    b = case.backend
    for side in ("R", "L"):
        alpha = b.alphabets[side]
        for g in alpha.letters:
            x = EdgeElem.letter(b, side, g)
            table = x.delta_r() if side == "R" else x.delta_l()
            tau = x.tau_r() if side == "R" else x.tau_l()
            for key in (*table.terms, *tau.terms):
                assert (key[-1] if side == "R" else key[0]) in alpha.letters
            assert table.finalize() == x.finalize().coproduct(1)


def test_letter_outside_its_alphabet_is_rejected(case):
    for side, name in case.foreign.items():
        with pytest.raises(ValueError, match=f"{name} is not a side-{side} letter"):
            EdgeElem.letter(case.backend, side, name)


def test_letter_coproduct_outside_the_alphabet_is_rejected(case):
    # give a right letter a monomial whose coproduct keeps a right leg that
    # is no right letter
    b, (letter, exps) = case.backend, case.bad_pbw
    R = b.alphabets["R"]
    bad_pbw = {**R.pbw, letter: {b.pack(*exps): ONE}}
    alphabets = {"R": Alphabet(R.letters, bad_pbw, R.tau), "L": b.alphabets["L"]}
    with pytest.raises(ValueError, match=f"side-R letter {letter} "):
        rebuild(case, f"{b.name}-bad", alphabets=alphabets)


def test_backend_keeps_its_own_alphabets(case):
    # a mutant built from the backend's alphabets, with the coproduct of the
    # first packed field scaled, derives its letter-coproduct tables into
    # its own copies, not into the backend's
    b, letter = case.backend, case.mutant
    before = {side: dict(b.alphabets[side].delta) for side in ("R", "L")}
    image = EdgeElem.letter(b, "R", letter).delta_r().finalize()
    scaled = {k: c * vpow(2) for k, c in b.gen_delta[0].items()}
    mutant = rebuild(case, f"{b.name}-mutant", gen_delta=(scaled, *b.gen_delta[1:]))
    assert mutant.alphabets["R"].delta[letter] != before["R"][letter]
    assert {side: b.alphabets[side].delta for side in ("R", "L")} == before
    assert EdgeElem.letter(b, "R", letter).delta_r().finalize() == image


def test_cotensor_property(case):
    seed = EdgeElem.casimir_delta(case.backend)
    assert seed.tau_r().finalize() == seed.tau_l().finalize()


def test_interchange_of_disjoint_morphisms(case):
    seed = EdgeElem.casimir_delta(case.backend)
    # right coaction then left coaction, against the opposite order
    assert seed.tau_r().tau_l().finalize() == seed.tau_l().tau_r().finalize()
    # coproduct on the left edge against coaction on the right edge
    assert seed.delta_l().tau_r().finalize() == seed.tau_r().delta_l().finalize()
    # coproducts on the two edges
    assert seed.delta_l().delta_r().finalize() == seed.delta_r().delta_l().finalize()


def test_iterated_coaction_equals_leading_coproducts(case):
    # (1^2 (x) tauR)(1 (x) tauR) tauR = (Delta (x) 1^2)(Delta (x) 1) tauR
    # on each right letter; the same exchange drives gap-widening rewrites
    b = case.backend
    for g in b.alphabets["R"].letters:
        t = EdgeElem.letter(b, "R", g).tau_r()
        lhs = t.tau_r().tau_r().finalize()
        rhs = t.delta_mid(1).delta_mid(1).finalize()
        assert lhs == rhs
    seed = EdgeElem.casimir_delta(b)
    lhs = seed.tau_r().tau_r().tau_r().finalize()
    rhs = seed.tau_r().delta_mid(2).delta_mid(2).finalize()
    assert lhs == rhs


def test_coaction_on_normalized_leg_rejected(case):
    # after a coaction on one edge the other edge leg is in normal form
    b = case.backend
    tau = {"R": EdgeElem.tau_r, "L": EdgeElem.tau_l}
    for side, other in (("R", "L"), ("L", "R")):
        for g in b.alphabets[side].letters:
            t = tau[side](EdgeElem.letter(b, side, g))
            with pytest.raises(CoactionError):
                tau[other](t)
