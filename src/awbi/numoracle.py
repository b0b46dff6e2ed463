"""Numeric cross-validation: evaluate symbolic elements as exact rational
matrices in finite-dimensional U_q(sl2) weight modules.

Everything is exact Fraction arithmetic; equality is decisive, with no
tolerances.  Evaluation shares only the element data structure with the
normal-form path, but a holding relation's two sides are one normal
form, so their matrices agree by construction.  Two kinds of check are
independent: failing pairs, whose matrices show that the sides differ as
operators, and products of separately evaluated generators, which audit
the straightening (criterion 8 at n=4, the lattice oracle test, demo 06).
ROADMAP item 5 covers the rest.

Only the U_q(sl2) backend has representations here; conventions for the
super side vary and the symbolic checks remain the ground truth there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod

from .pbw import AlgElem


@dataclass(frozen=True)
class RepSpec:
    """Per-leg module dimensions and the exact evaluation point.

    v_value is the value of v = q^(1/2); the evaluation uses q = v_value^2,
    which keeps every integer power of q rational.
    """

    dims: tuple
    v_value: Fraction

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError("dimensions must be >= 1")
        q = self.v_value ** 2
        if q in (0, 1, -1):
            raise ValueError("evaluation point must have q outside {0, 1, -1}")


# -- tiny exact matrix helpers -------------------------------------------------

def mat_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p))
        for i in range(n)
    )


def mat_add(a, b, ca=1, cb=1):
    return tuple(
        tuple(ca * x + cb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_is_zero(a):
    return all(all(x == 0 for x in row) for row in a)


# -- representations ------------------------------------------------------------

def rep_matrices(dim: int, q: Fraction):
    """The dim-dimensional weight module: K diagonal with weights
    q^(dim-1-2j), F the shift down the weight ladder, E the shift up with
    the q-integer products that make the defining relations exact."""
    if q in (0, 1, -1):
        raise ValueError("degenerate q value")
    d = dim - 1
    K = tuple(tuple(q ** (d - 2 * j) if i == j else Fraction(0)
                    for j in range(dim)) for i in range(dim))
    Ki = tuple(tuple(q ** (2 * j - d) if i == j else Fraction(0)
                     for j in range(dim)) for i in range(dim))

    def qint(m):
        return (q ** m - q ** (-m)) / (q - q ** -1)

    F = tuple(tuple(Fraction(1) if i == j + 1 else Fraction(0)
                    for j in range(dim)) for i in range(dim))
    E = tuple(tuple(qint(j) * qint(d - j + 1) if i == j - 1 else Fraction(0)
                    for j in range(dim)) for i in range(dim))
    return {"E": E, "F": F, "K": K, "Ki": Ki}


@cache
def _mono_entries(dim, q, f, k, e):
    """The nonzero entries (row, column, value) of F^f K^k E^e; at most
    dim of them, since the monomial maps each weight vector to a multiple
    of one weight vector."""
    gens = rep_matrices(dim, q)
    m = mat_identity(dim)
    for name, p in (("F", f), ("K" if k >= 0 else "Ki", abs(k)), ("E", e)):
        for _ in range(p):
            m = mat_mul(m, gens[name])
    return tuple((i, j, x) for i, row in enumerate(m)
                 for j, x in enumerate(row) if x)


def evaluate(x: AlgElem, spec: RepSpec):
    """Evaluate a symbolic element to an exact rational matrix.  A tensor
    monomial is the Kronecker product of its legs' monomial matrices, the
    first leg most significant; each product of per-leg nonzero entries
    lands on one matrix entry, so no dense product is formed.  Elements
    converted from the lattice share their coefficients, so each distinct
    coefficient is evaluated once per call."""
    if x.backend.name != "aw":
        raise ValueError("numeric evaluation is only defined for the aw backend")
    if x.arity != len(spec.dims):
        raise ValueError(f"arity {x.arity} does not match dims {spec.dims}")
    q = spec.v_value ** 2
    size = prod(spec.dims)
    acc = [[Fraction(0)] * size for _ in range(size)]
    unpack = x.backend.unpack
    values = {}
    for key, coeff in x.terms.items():
        value = values.get(coeff)
        if value is None:
            value = values[coeff] = coeff.evaluate(spec.v_value)
        entries = [(0, 0, value)]
        for d, mono in zip(spec.dims, key):
            entries = [(r * d + i, c * d + j, v * w) for r, c, v in entries
                       for i, j, w in _mono_entries(d, q, *unpack(mono))]
        for r, c, v in entries:
            acc[r][c] += v
    return tuple(tuple(row) for row in acc)


def crosscheck(lhs: AlgElem, rhs: AlgElem, spec: RepSpec) -> bool:
    """Exact matrix equality of the two sides under the representation."""
    return evaluate(lhs, spec) == evaluate(rhs, spec)


DEFAULT_POINTS = (Fraction(3, 2), Fraction(5, 7))


def crosscheck_points(lhs: AlgElem, rhs: AlgElem, dims) -> bool:
    """Cross-check at the DEFAULT_POINTS; a second point guards against
    accidental vanishing at the first."""
    return all(crosscheck(lhs, rhs, RepSpec(tuple(dims), r)) for r in DEFAULT_POINTS)
