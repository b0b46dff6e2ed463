"""Exact coefficient arithmetic: Laurent polynomials and reduced rational
functions in the formal variable v = q^(1/2), with arbitrary-precision
integer coefficients.

Both engine backends share this field.  The U_q(sl2) side only ever
produces even powers of v (i.e. integer powers of q); the osp_q(1|2) side
needs genuine half-integer powers of q, which is why v is the variable.

Every denominator the engines produce comes from 1/(q - q^-1),
1/(q^(1/2) - q^(-1/2)) and the bi Casimir counit -1/(q^(1/2) + q^(-1/2)),
so up to a unit +-v^s it is a product of v - 1, v + 1 and v^2 + 1.  A RatQ
with such a denominator stores only the exponent triple of those three
factors.  Products add the triples, sums raise both numerators to the
elementwise maximum, and a common factor is found by testing the
numerator for a zero at 1, -1 or i and divided out exactly: no gcd runs.

Any other denominator (integer content, or another irreducible factor)
takes the general path, _reduce, which cancels through the primitive
pseudo-remainder gcd.  It is kept for inputs from outside the engines
(RatQ.make, from_json) and quotients that leave the factor set on the way;
a result whose reduced denominator lies in the set comes back factored.
Both paths give the same canonical (num, den), so equal elements compare,
hash and serialize alike whichever path built them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients, stored as a
    sparse exponent -> coefficient map (no zero coefficients kept)."""

    __slots__ = ("d", "_hash")

    def __init__(self, d=None, _trusted=False):
        if d is None:
            d = {}
        if not _trusted:
            d = {e: c for e, c in d.items() if c}
        self.d = d
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _LP_ZERO

    @staticmethod
    def mono(exp, coeff=1):
        """coeff * v^exp"""
        if coeff == 0:
            return _LP_ZERO
        return LaurentPoly({int(exp): int(coeff)}, _trusted=True)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.d

    def is_one(self):
        return self.d == {0: 1}

    def __bool__(self):
        return bool(self.d)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        a, b = self.d, other.d
        if not a:
            return other
        if not b:
            return self
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly(out, _trusted=True)

    def __sub__(self, other):
        if not other.d:
            return self
        out = dict(self.d)
        for e, c in other.d.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly(out, _trusted=True)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.d.items()}, _trusted=True)

    def __mul__(self, other):
        a, b = self.d, other.d
        if not a or not b:
            return _LP_ZERO
        if len(a) == 1:
            (ea, ca), = a.items()
            return LaurentPoly({ea + e: ca * c for e, c in b.items()}, _trusted=True)
        if len(b) == 1:
            (eb, cb), = b.items()
            return LaurentPoly({eb + e: cb * c for e, c in a.items()}, _trusted=True)
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly(out, _trusted=True)

    def shift(self, k):
        """Multiply by v^k."""
        if k == 0 or not self.d:
            return self
        return LaurentPoly({e + k: c for e, c in self.d.items()}, _trusted=True)

    def scale(self, c):
        c = int(c)
        if c == 0:
            return _LP_ZERO
        if c == 1:
            return self
        return LaurentPoly({e: c * x for e, x in self.d.items()}, _trusted=True)

    # -- structure ---------------------------------------------------------

    def degree(self):
        return max(self.d) if self.d else None

    def valuation(self):
        return min(self.d) if self.d else None

    def leading_coeff(self):
        return self.d[max(self.d)] if self.d else 0

    def content(self):
        """gcd of the integer coefficients, nonnegative."""
        g = 0
        for c in self.d.values():
            g = _int_gcd(g, abs(c))
        return g

    def evaluate(self, r: Fraction) -> Fraction:
        acc = Fraction(0)
        for e, c in self.d.items():
            acc += c * r ** e
        return acc

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.d == other.d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.d.items())))
        return self._hash

    # -- division ----------------------------------------------------------

    def divexact(self, g: "LaurentPoly") -> "LaurentPoly":
        """Exact division by g.  Raises ValueError if g does not divide
        self over the integers."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return _LP_ZERO
        if len(g.d) == 1:
            (eg, cg), = g.d.items()
            out = {}
            for e, c in self.d.items():
                q, r = divmod(c, cg)
                if r:
                    raise ValueError("not an exact division")
                out[e - eg] = q
            return LaurentPoly(out, _trusted=True)
        sv, gv = self.valuation(), g.valuation()
        quo = _int_divexact(_idense(self, -sv), _idense(g, -gv))
        out = {}
        for i, c in enumerate(quo):
            if c:
                out[i + sv - gv] = c
        return LaurentPoly(out, _trusted=True)

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"

    def pretty(self):
        """Render in powers of q: even v-exponents as integer q powers, odd
        ones as q^(k/2)."""
        if not self.d:
            return "0"
        bits = [_term_str(self.d[e], e) for e in sorted(self.d, reverse=True)]
        return " + ".join(bits).replace("+ -", "- ")


def _term_str(c, e):
    if e == 0:
        return str(c)
    if e % 2 == 0:
        var = "q" if e == 2 else f"q^{e // 2}"
    else:
        var = f"q^({e}/2)"
    if c == 1:
        return var
    if c == -1:
        return f"-{var}"
    return f"{c}*{var}"


def _idense(p: LaurentPoly, shift: int):
    """Dense integer list of p * v^shift, which must be an ordinary poly."""
    out = [0] * (p.degree() + shift + 1)
    for e, c in p.d.items():
        out[e + shift] = c
    return out


def _int_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _int_content(a):
    g = 0
    for c in a:
        if c:
            g = _int_gcd(g, abs(c))
    return g or 1


def _int_primitive(a):
    g = _int_content(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a] if g != 1 else a


def _int_divexact(a, b):
    """Synthetic division of integer polys; ValueError unless b divides a
    over the integers."""
    b = _int_trim(list(b))
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    if len(r) - 1 < db:
        raise ValueError("not an exact division")
    terms = [(i, bc) for i, bc in enumerate(b) if bc]
    out = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if c % lb:
            raise ValueError("not an exact division")
        qc = c // lb
        out[k] = qc
        if qc:
            for i, bc in terms:
                r[k + i] -= qc * bc
    if any(r):
        raise ValueError("not an exact division")
    return out


def _int_gcd_poly(a, b):
    """gcd of primitive integer polys by a primitive pseudo-remainder
    sequence; returns a primitive poly with positive leading coefficient."""
    a = _int_primitive(_int_trim(list(a)))
    b = _int_primitive(_int_trim(list(b)))
    if len(a) < len(b):
        a, b = b, a
    while True:
        if not b:
            return _int_primitive(a)
        if len(b) == 1:
            return [1]
        # primitive pseudo-remainder of a by b
        r = list(a)
        lb = b[-1]
        db = len(b) - 1
        while len(r) - 1 >= db:
            lr = r[-1]
            if lr:
                r = [c * lb for c in r]
                shift = len(r) - 1 - db
                for i, bc in enumerate(b):
                    r[shift + i] -= lr * bc
            del r[-1]
            r = _int_trim(r)
            if not r:
                break
        a, b = b, (_int_primitive(r) if r else [])


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """gcd of the primitive parts over Q, returned as a primitive integer
    polynomial with valuation 0 and positive leading coefficient.  Both
    operands are nonzero."""
    if len(a.d) == 1 or len(b.d) == 1:
        return _LP_ONE
    g = _int_gcd_poly(_idense(a, -a.valuation()), _idense(b, -b.valuation()))
    return LaurentPoly({i: c for i, c in enumerate(g) if c}, _trusted=True)


_LP_ZERO = LaurentPoly({}, _trusted=True)
_LP_ONE = LaurentPoly({0: 1}, _trusted=True)


# ---------------------------------------------------------------------------
# the factor set: every denominator the engines produce is a product of
#   f_0 = v - 1,  f_1 = v + 1,  f_2 = v^2 + 1
# times a unit +-v^s.  An exponent triple e = (b, c, d) stands for
# D(e) = f_0^b f_1^c f_2^d.
# ---------------------------------------------------------------------------

_UNIT = (0, 0, 0)       # every all-zero triple built here is this object,
                        # so `e is _UNIT` is the hot path's unit test
_FACTORS = (LaurentPoly({1: 1, 0: -1}, _trusted=True),
            LaurentPoly({1: 1, 0: 1}, _trusted=True),
            LaurentPoly({2: 1, 0: 1}, _trusted=True))
_DEN_CACHE: dict[tuple, LaurentPoly] = {_UNIT: _LP_ONE}


def _den_poly(e) -> LaurentPoly:
    """D(e) as a polynomial, memoised: it serves both as the denominator
    of every element with exponents e and as the cofactor that brings a
    denominator up to a common multiple."""
    p = _DEN_CACHE.get(e)
    if p is None:
        p = _LP_ONE
        for f, k in zip(_FACTORS, e):
            for _ in range(k):
                p = p * f
        _DEN_CACHE[e] = p
    return p


def _vanishes(d, k) -> bool:
    """Does the Laurent polynomial with term map d vanish at the roots of
    f_k?  Roots 1, -1 and i; over the integers a zero at i is also one at
    -i, and i^e only depends on e mod 4."""
    if k == 0:
        return sum(d.values()) == 0
    if k == 1:
        return sum(-c if e & 1 else c for e, c in d.items()) == 0
    r = [0, 0, 0, 0]
    for e, c in d.items():
        r[e & 3] += c
    return r[0] == r[2] and r[1] == r[3]


def _shared(d, e):
    """The triple m with m[k] = 1 where e[k] > 0 and the polynomial with
    term map d vanishes at the roots of f_k, else 0: the factors of D(e)
    that can be cancelled once."""
    m = (1 if e[0] and _vanishes(d, 0) else 0,
         1 if e[1] and _vanishes(d, 1) else 0,
         1 if e[2] and _vanishes(d, 2) else 0)
    return _UNIT if m == _UNIT else m


def _add3(x, y, sign=1):
    """x + sign * y elementwise, with the all-zero result as _UNIT."""
    t = (x[0] + sign * y[0], x[1] + sign * y[1], x[2] + sign * y[2])
    return _UNIT if t == _UNIT else t


def _strip(num: LaurentPoly, e):
    """Cancel from num / D(e) every factor that num shares with D(e);
    returns the reduced (num, e)."""
    while e is not _UNIT:
        m = _shared(num.d, e)
        if m is _UNIT:
            break
        num = num.divexact(_den_poly(m))
        e = _add3(e, m, -1)
    return num, e


def _split(p: LaurentPoly):
    """Write a nonzero p as u * D(e) with u = +-v^s.  Returns (u, e), or
    None when p has any other factor (integer content included)."""
    e = _UNIT
    while True:
        m = _shared(p.d, (1, 1, 1))
        if m is _UNIT:
            break
        p = p.divexact(_den_poly(m))
        e = _add3(e, m)
    if len(p.d) != 1 or p.leading_coeff() not in (1, -1):
        return None
    return p, e


class RatQ:
    """Reduced quotient of two Laurent polynomials: an element of the
    coefficient field Q(v).

    Canonical representative: gcd(num, den) is a unit, shared integer
    content removed, den has valuation 0 and positive leading coefficient.
    Equality is then plain structural equality.

    When den is a product D(e) of the factor set, which is every
    denominator the engines produce, only the exponent triple e is
    stored and den reads D(e) from a shared cache.  Otherwise e is None
    and den is stored as it is (the general path).  Build elements with
    make or from_poly; the constructor trusts its arguments.
    """

    __slots__ = ("num", "e", "_den")

    def __init__(self, num: LaurentPoly, e, den=None):
        self.num = num
        self.e = e
        self._den = den

    @property
    def den(self) -> LaurentPoly:
        e = self.e
        return self._den if e is None else _den_poly(e)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RatQ":
        """num / den in canonical form.  A den inside the factor set is
        split off by root tests; any other goes through the polynomial
        gcd."""
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return ZERO
        split = _split(den)
        if split is None:
            num, den = _reduce(num, den)
            split = _split(den)
            if split is None:
                return RatQ(num, None, den)
        (s, c), = split[0].d.items()
        return RatQ(*_strip(num.shift(-s).scale(c), split[1]))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatQ":
        return RatQ(p, _UNIT)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num.d

    def is_one(self):
        return self.e == _UNIT and self.num.is_one()

    def __bool__(self):
        return bool(self.num.d)

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        b = other.num
        if not b.d:
            return self
        a = self.num
        if not a.d:
            return other
        if self.e is _UNIT and other.e is _UNIT:
            n = a + b
            return RatQ(n, _UNIT) if n.d else ZERO
        return _sum(self, b, other)

    def __sub__(self, other):
        b = other.num
        if not b.d:
            return self
        if self.e is _UNIT and other.e is _UNIT:
            n = self.num - b
            return RatQ(n, _UNIT) if n.d else ZERO
        return _sum(self, -b, other)

    def __neg__(self):
        if not self.num.d:
            return self
        return RatQ(-self.num, self.e, self._den)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a.d or not b.d:
            return ZERO
        ea, eb = self.e, other.e
        if ea is _UNIT and eb is _UNIT:
            return RatQ(a * b, _UNIT)
        if ea is None or eb is None:
            return RatQ.make(a * b, self.den * other.den)
        # a is prime to D(ea) and b to D(eb): only the cross pairs cancel
        if eb != _UNIT:
            a, eb = _strip(a, eb)
        if ea != _UNIT:
            b, ea = _strip(b, ea)
        return RatQ(a * b, _add3(ea, eb))

    def __truediv__(self, other):
        if not other.num.d:
            raise ZeroDivisionError("division by zero")
        if not self.num.d:
            return ZERO
        return RatQ.make(self.num * other.den, self.den * other.num)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RatQ) and self.e == other.e
                and self.num == other.num and self._den == other._den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation / rendering ----------------------------------------------

    def evaluate(self, r: Fraction) -> Fraction:
        dv = self.den.evaluate(r)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at v = {r}")
        return self.num.evaluate(r) / dv

    def pretty(self):
        if self.den.is_one():
            n = self.num.pretty()
            return n if len(self.num.d) == 1 else f"({n})"
        return f"({self.num.pretty()})/({self.den.pretty()})"

    def __repr__(self):
        return f"RatQ({self.pretty()})"

    def to_json(self):
        return {
            "num": [[e, str(c)] for e, c in sorted(self.num.d.items())],
            "den": [[e, str(c)] for e, c in sorted(self.den.d.items())],
        }

    @staticmethod
    def from_json(obj) -> "RatQ":
        num = LaurentPoly({int(e): int(c) for e, c in obj["num"]})
        den = LaurentPoly({int(e): int(c) for e, c in obj["den"]})
        return RatQ.make(num, den)


def _sum(x: RatQ, nb: LaurentPoly, y: RatQ) -> RatQ:
    """x + nb / den(y): the sum (or, with nb = -y.num, the difference)
    over the common denominator D(max(e_x, e_y))."""
    ex, ey = x.e, y.e
    if ex is None or ey is None:
        return RatQ.make(x.num * y.den + nb * x.den, x.den * y.den)
    if ex == ey:
        n, e = x.num + nb, ex
    else:
        e = (max(ex[0], ey[0]), max(ex[1], ey[1]), max(ex[2], ey[2]))
        n = _raise(x.num, ex, e) + _raise(nb, ey, e)
    if not n.d:
        return ZERO
    return RatQ(*_strip(n, e))


def _raise(num: LaurentPoly, e, m) -> LaurentPoly:
    """The numerator of num / D(e) over the larger denominator D(m)."""
    if e == m:
        return num
    return num * _den_poly((m[0] - e[0], m[1] - e[1], m[2] - e[2]))


def _reduce(num: LaurentPoly, den: LaurentPoly):
    """The general path: canonical (num, den) through a polynomial gcd."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    if not den.is_one():
        if len(den.d) > 1 or len(num.d) > 1:
            g = _poly_gcd(num, den)
            if not g.is_one():
                num = num.divexact(g)
                den = den.divexact(g)
        s = den.valuation()
        if s:
            num = num.shift(-s)
            den = den.shift(-s)
    c = _int_gcd(num.content(), den.content())
    if den.leading_coeff() < 0:
        c = -c
    if c != 1:
        num = LaurentPoly({e: x // c for e, x in num.d.items()}, _trusted=True)
        den = LaurentPoly({e: x // c for e, x in den.d.items()}, _trusted=True)
    return num, den


ZERO = RatQ(_LP_ZERO, _UNIT)
ONE = RatQ(_LP_ONE, _UNIT)

_VPOW_CACHE: dict[int, RatQ] = {}


def vpow(k) -> RatQ:
    """v^k as a field element (v = q^(1/2), so q^a is vpow(2a))."""
    r = _VPOW_CACHE.get(k)
    if r is None:
        r = RatQ(LaurentPoly.mono(k), _UNIT)
        _VPOW_CACHE[k] = r
    return r


def lp(*pairs) -> LaurentPoly:
    """LaurentPoly from (exp, coeff) pairs; exponents in v."""
    d = {}
    for e, c in pairs:
        d[e] = d.get(e, 0) + c
    return LaurentPoly(d)


def rq(*pairs) -> RatQ:
    """Polynomial field element from (v-exp, coeff) pairs."""
    return RatQ.from_poly(lp(*pairs))
