"""Helpers shared by the engine test modules."""

from awbi.pbw import AlgElem, EdgeElem


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


def generator_maps(backend, gens):
    """The generators gens (name -> element) as (map, unit), and their
    coproducts likewise: the defining relations must hold on both."""
    return ((gens, AlgElem.one(backend, 1)),
            ({g: x.coproduct(1) for g, x in gens.items()}, AlgElem.one(backend, 2)))


def assert_relations_vanish(relations, maps):
    """relations(W, unit) lists elements that must vanish; check them on
    every (map, unit) of maps."""
    for W, unit in maps:
        for r in relations(W, unit):
            assert r.is_zero()
