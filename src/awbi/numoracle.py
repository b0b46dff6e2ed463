"""Numeric cross-validation: evaluate symbolic elements as exact rational
matrices in finite-dimensional U_q(sl2) weight modules.

Equality is decisive, with no tolerances.  The evaluation point, the
module matrices and every result entry are Fractions, but the kernel
sums Python ints: every entry product is held as an integer over one
denominator common to the whole element (see _kernel).  Integer sums
are exact, so one division per entry at the end gives the same Fractions
as summing Fractions term by term, and crosscheck compares two elements'
sums cross-multiplied by each other's denominator, with no division at
all.  Evaluation shares only the element data structure and the
coefficient field with the normal-form path, but a holding relation's
two sides are one normal form, so their matrices agree by construction.
Two kinds of check are independent: failing pairs, whose matrices show
that the sides differ as operators, and products of separately evaluated
generators, which audit the straightening (criterion 8 at n=4, the
lattice oracle test, demo 06).
ROADMAP item 6 covers the rest.

Only the U_q(sl2) backend has representations here; conventions for the
super side vary and the symbolic checks remain the ground truth there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import lcm, prod

from .pbw import AlgElem
from .qcoeff import exact


@dataclass(frozen=True)
class RepSpec:
    """Per-leg module dimensions and the exact evaluation point.

    v_value is the value of v = q^(1/2); the evaluation uses q = v_value^2,
    which keeps every integer power of q rational.  An int v_value is
    stored as a Fraction.
    """

    dims: tuple
    v_value: Fraction

    def __post_init__(self):
        for d in self.dims:
            _check_dim(d)
        object.__setattr__(self, "v_value", exact(self.v_value))
        q = self.v_value ** 2
        if q in (0, 1, -1):
            raise ValueError("evaluation point must have q outside {0, 1, -1}")


def _check_dim(d):
    if not isinstance(d, int):
        raise TypeError(f"a dimension must be an int, not {type(d).__name__}")
    if d < 1:
        raise ValueError("dimensions must be >= 1")


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
    _check_dim(dim)
    q = exact(q)
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
def _mono_entries(dim, qn, qd, f, k, e):
    """The nonzero entries (row, column, value) of F^f K^k E^e at q = qn/qd;
    at most dim of them, since the monomial maps each weight vector to a
    multiple of one weight vector.  q comes as two ints because the cache
    hashes its key on every lookup, and a Fraction hashes slowly."""
    gens = rep_matrices(dim, Fraction(qn, qd))
    m = mat_identity(dim)
    for name, p in (("F", f), ("K" if k >= 0 else "Ki", abs(k)), ("E", e)):
        for _ in range(p):
            m = mat_mul(m, gens[name])
    return tuple((i, j, x) for i, row in enumerate(m)
                 for j, x in enumerate(row) if x)


def evaluate(x: AlgElem, spec: RepSpec):
    """Evaluate a symbolic element to an exact rational matrix: entry i of
    the flattened matrix is acc[i] / den, with (acc, den) from _kernel."""
    acc, den = _kernel(x, spec)
    size = prod(spec.dims)
    zero = Fraction(0)
    flat = [Fraction(a, den) if a else zero for a in acc]
    return tuple(tuple(flat[r:r + size]) for r in range(0, size * size, size))


def _kernel(x: AlgElem, spec: RepSpec):
    """The matrix of x as (acc, den): its entries, row-major, as ints over
    one positive common denominator.  A tensor monomial is the Kronecker
    product of its legs' monomial matrices, the first leg most
    significant; each product of per-leg nonzero entries lands on one
    matrix entry, so no dense product is formed.

    The sums run in ints.  Leg i's entries become integers over L_i, the
    lcm of the denominators of the entries of the monomials present on
    that leg; each distinct coefficient is evaluated once, and the values
    become integers over their lcm D.  An entry product is then an integer
    over D * prod(L_i), and each matrix entry is its integer sum over that
    denominator.  Each distinct half key (the legs before and after the
    middle) is expanded once, and a term pairs the entries of its two
    halves."""
    if x.backend.name != "aw":
        raise ValueError("numeric evaluation is only defined for the aw backend")
    if x.arity != len(spec.dims):
        raise ValueError(f"arity {x.arity} does not match dims {spec.dims}")
    q = spec.v_value ** 2
    qn, qd = q.numerator, q.denominator
    size = prod(spec.dims)
    index, values, which = {}, [], []
    for coeff in x.terms.values():
        i = index.get(coeff)
        if i is None:
            i = index[coeff] = len(values)
            values.append(coeff.evaluate(spec.v_value))
        which.append(i)
    den = _lcm(v.denominator for v in values)
    values = [v.numerator * (den // v.denominator) for v in values]
    # per leg, each monomial present -> its (flat offset, int value) entries;
    # entry (i, j) of leg l with stride s moves the flat index of the full
    # matrix entry by (i * size + j) * s
    unpack = x.backend.unpack
    tables, stride = [], size
    for leg, d in enumerate(spec.dims):
        stride //= d
        entries = {m: _mono_entries(d, qn, qd, *unpack(m))
                   for m in {k[leg] for k in x.terms}}
        scale = _lcm(w.denominator for es in entries.values() for _, _, w in es)
        den *= scale
        tables.append({m: [((i * size + j) * stride,
                             w.numerator * (scale // w.denominator)) for i, j, w in es]
                       for m, es in entries.items()})
    h = x.arity // 2
    left = _kron(tables[:h], {k[:h] for k in x.terms})
    right = _kron(tables[h:], {k[h:] for k in x.terms})
    acc = [0] * (size * size)
    for key, i in zip(x.terms, which):
        c, ends = values[i], right[key[h:]]
        for p, v in left[key[:h]]:
            v *= c
            for o, w in ends:
                acc[p + o] += v * w
    return acc, den


def _lcm(ints):
    """The lcm of the ints, two at a time: math.lcm called with many
    arguments leaks memory on CPython 3.11 and 3.12."""
    return reduce(lcm, ints, 1)


def _kron(tables, keys):
    """For each key, a tuple of monomials on consecutive legs, the (flat
    offset, int value) entries of their Kronecker product: one entry per
    leg, offsets added and values multiplied."""
    out = {}
    for key in keys:
        entries = [(0, 1)]
        for table, mono in zip(tables, key):
            entries = [(p + o, v * w) for p, v in entries for o, w in table[mono]]
        out[key] = entries
    return out


def crosscheck(lhs: AlgElem, rhs: AlgElem, spec: RepSpec) -> bool:
    """Exact matrix equality of the two sides under the representation:
    each side's integer entries, cross-multiplied by the other side's
    common denominator, agree, with no Fraction formed."""
    a1, d1 = _kernel(lhs, spec)
    a2, d2 = _kernel(rhs, spec)
    return all(x * d2 == y * d1 for x, y in zip(a1, a2))


DEFAULT_POINTS = (Fraction(3, 2), Fraction(5, 7))


def crosscheck_points(lhs: AlgElem, rhs: AlgElem, dims) -> bool:
    """Cross-check at the DEFAULT_POINTS; a second point guards against
    accidental vanishing at the first."""
    return all(crosscheck(lhs, rhs, RepSpec(tuple(dims), r)) for r in DEFAULT_POINTS)
