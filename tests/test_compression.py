"""Run-compressed relation checks: the coproduct lemma they rest on, the
compression of a pair, and the residuals they lift back to arity n."""

import pytest

from awbi import osp_engine as osp
from awbi import uq_engine as uq
from awbi.extension import compress, generator
from awbi.pbw import lincomb
from awbi.relations import _check, _lattice_sides, subsets

AW, BI = uq.AW, osp.BI


def _doubled(X, i):
    """X with leg i doubled: legs after i move up by one."""
    return tuple(x for a in X for x in ((a, a + 1) if a == i else
                                          (a + (a > i),)))


@pytest.mark.parametrize("backend", [AW, BI], ids=["aw", "bi"])
def test_coproduct_doubles_a_leg_of_every_lattice_generator(backend):
    """For X inside [1;n], n <= 5, and every leg i: the coproduct on leg i
    of G_X is the generator with leg i doubled, the counit on either copy
    gives G_X back, and padding gives the generator of the shifted set."""
    lat = backend.lattice
    for n in range(1, 6):
        for X in subsets(n):
            g = generator(lat, n, X)
            for i in range(1, n + 1):
                d = generator(lat, n + 1, _doubled(X, i))
                assert g.coproduct(i) == d, (n, X, i)
                assert d.counit(i) == g and d.counit(i + 1) == g, (n, X, i)
            for left, right in ((1, 0), (0, 1), (2, 1)):
                shifted = tuple(x + left for x in X)
                assert g.pad(left, right) == generator(
                    lat, n + left + right, shifted), (n, X, left, right)


def test_compress_cases():
    # the all-empty pair is one 00 run
    assert compress((), (), 4) == ((), (), (4,), 0, 0)
    # (empty, [1;n]) is one 01 run
    assert compress((), (1, 2, 3, 4), 4) == ((), (1,), (4,), 0, 0)
    # an interior 00 run stays, as one letter
    assert compress((1, 5), (1, 4, 5), 5) == ((1, 4), (1, 3, 4), (1, 2, 1, 1), 0, 0)
    # 00 legs at both ends are stripped and counted
    assert compress((2, 3), (3, 4), 6) == ((1, 2), (2, 3), (1, 1, 1), 1, 2)
    # an irreducible pair maps to itself
    assert compress((1, 3), (2, 3), 3) == ((1, 3), (2, 3), (1, 1, 1), 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        compress((1, 5), (), 4)


def _direct_residual(relation, A, B, n, backend):
    """lhs - rhs of the products at arity n, converted back, after checking
    that _check reports this residual and its verdict for the pair."""
    rep = _check(relation, A, B, n, backend)
    lhs, rhs = map(lincomb, _lattice_sides(relation, A, B, n, backend))
    direct = backend.lattice.from_lattice(lhs - rhs, 2)
    assert getattr(rep, "residual_" + relation) == direct, (A, B, n, relation)
    assert getattr(rep, "holds_" + relation) == direct.is_zero()
    assert (rep.A, rep.B, rep.n) == (A, B, n)
    return direct


@pytest.mark.parametrize("backend", [AW, BI], ids=["aw", "bi"])
def test_compressed_residuals_equal_direct_residuals_n4(backend):
    """Every ordered pair at n=4, both relations: the residual _check lifts
    from the compressed pair is the direct lhs - rhs at arity 4, as exact
    elements."""
    for A in subsets(4):
        for B in subsets(4):
            for relation in ("star", "comm"):
                _direct_residual(relation, A, B, 4, backend)


def _widen(X, runs, left):
    """The set whose compressed form is X under runs, after left stripped
    legs."""
    starts = [left + 1 + sum(runs[:j]) for j in range(len(runs))]
    return tuple(x for j in X for x in range(starts[j - 1], starts[j - 1] + runs[j - 1]))


@pytest.mark.parametrize("backend", [AW, BI], ids=["aw", "bi"])
def test_residuals_lifted_through_several_runs_n5(backend):
    """At n=4 a residual that needs two widened runs is zero, so these
    n=5 pairs check the lift where it counts: the failing n=3 pairs with
    two of their three runs doubled, and with one doubled and one
    stripped leg."""
    for A, B in (((1, 2), (1, 3)), ((1, 3), (2, 3)), ((2, 3), (1, 2))):
        for runs, left in (((2, 2, 1), 0), ((2, 1, 2), 0), ((1, 2, 2), 0),
                           ((2, 1, 1), 1)):
            A5, B5 = _widen(A, runs, left), _widen(B, runs, left)
            assert compress(A5, B5, 5) == (A, B, runs, left, 5 - left - sum(runs))
            assert not _direct_residual("star", A5, B5, 5, backend).is_zero()
            _direct_residual("comm", A5, B5, 5, backend)
