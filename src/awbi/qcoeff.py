"""Exact coefficient arithmetic: Laurent polynomials and reduced rational
functions in the formal variable v = q^(1/2), with arbitrary-precision
integer coefficients.

Both engine backends share this field.  The U_q(sl2) side only ever
produces even powers of v (i.e. integer powers of q); the osp_q(1|2) side
needs genuine half-integer powers of q, which is why v is the variable.

A RatQ is always stored reduced, through the primitive pseudo-remainder
gcd of _reduce, so equal elements compare, hash and serialize alike;
elements with denominator 1 skip the gcd.  Generator construction and the
products that decide relations make no RatQ: they run over Z[v, v^-1] in
each backend's lattice (pbw.Lattice).  RatQ serves the published basis
(printing, residuals, the scalars at the edges), input from outside (make,
from_json) and the selftest's field axioms.
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
        return self + (-other)

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
        r = exact(r)
        return Fraction(*self._at(r.numerator, r.denominator))

    def _at(self, a, b):
        """(n, d) in ints with n/d the value at v = a/b.  With lo and hi
        the least and greatest exponents, the value is a^lo / b^hi times
        the integer sum of c_e a^(e-lo) b^(hi-e), formed by Horner's rule
        from the top exponent down."""
        if not self.d:
            return 0, 1
        exps = sorted(self.d, reverse=True)
        hi = lo = exps[0]
        n, bpow = 0, 1
        # n = the sum over exponents e >= lo of c_e a^(e-lo) b^(hi-e),
        # bpow = b^(hi-lo)
        for e in exps:
            if e != lo:
                n *= a ** (lo - e)
                bpow *= b ** (lo - e)
                lo = e
            n += self.d[e] * bpow
        return (n * a ** max(lo, 0) * b ** max(-hi, 0),
                a ** max(-lo, 0) * b ** max(hi, 0))

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

    # exact division, so the field's code for letter tables runs here too
    __truediv__ = divexact

    def __repr__(self):
        return f"LaurentPoly({self.pretty()})"

    def pretty(self):
        """Render in powers of q: even v-exponents as integer q powers, odd
        ones as q^(k/2)."""
        if not self.d:
            return "0"
        bits = [_term_str(self.d[e], e) for e in sorted(self.d, reverse=True)]
        return " + ".join(bits).replace("+ -", "- ")


def exact(r) -> Fraction:
    """r as a Fraction.  Only ints and Fractions are exact: a float would
    make every value computed from it a float."""
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    raise TypeError("an exact value must be an int or a Fraction, "
                    f"not {type(r).__name__}")


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


class RatQ:
    """Reduced quotient of two Laurent polynomials: an element of the
    coefficient field Q(v).

    Canonical representative: gcd(num, den) is a unit, shared integer
    content removed, den has valuation 0 and positive leading coefficient.
    Equality is then plain structural equality.  Every element with
    denominator 1 shares the one unit polynomial as its den, so sums and
    products of polynomials skip the gcd.  Build elements with make, or
    a polynomial p as RatQ(p), whose den defaults to that unit; the
    constructor trusts its arguments.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RatQ":
        """num / den in canonical form."""
        return RatQ(*_reduce(num, den))

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.num.d

    def is_one(self):
        return self.den is _LP_ONE and self.num.is_one()

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
        da, db = self.den, other.den
        if da is _LP_ONE and db is _LP_ONE:
            n = a + b
            return RatQ(n) if n.d else ZERO
        return _sum(a, da, b, db)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.num.d:
            return self
        return RatQ(-self.num, self.den)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a.d or not b.d:
            return ZERO
        da, db = self.den, other.den
        if da is _LP_ONE and db is _LP_ONE:
            return RatQ(a * b)
        # a is prime to da and b to db: only the cross pairs can cancel
        a, db = _cancel(a, db)
        b, da = _cancel(b, da)
        return RatQ(*_normalize(a * b, da * db))

    def __truediv__(self, other):
        if not other.num.d:
            raise ZeroDivisionError("division by zero")
        if not self.num.d:
            return ZERO
        return RatQ.make(self.num * other.den, self.den * other.num)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RatQ) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation / rendering ----------------------------------------------

    def evaluate(self, r: Fraction) -> Fraction:
        r = exact(r)
        a, b = r.numerator, r.denominator
        n, d = self.num._at(a, b)
        dn, dd = self.den._at(a, b)
        if dn == 0:
            raise ZeroDivisionError(f"denominator vanishes at v = {r}")
        return Fraction(n * dd, d * dn)

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


def _sum(a, da, b, db) -> RatQ:
    """a/da + b/db over lcm(da, db), which keeps the numerator that
    _reduce cancels against small."""
    g = _poly_gcd(da, db)
    xa, xb = da.divexact(g), db.divexact(g)
    return RatQ.make(a * xb + b * xa, xa * db)


def _cancel(a: LaurentPoly, b: LaurentPoly):
    """a and b divided by their polynomial gcd."""
    g = _poly_gcd(a, b)
    return (a, b) if g.is_one() else (a.divexact(g), b.divexact(g))


def _reduce(num: LaurentPoly, den: LaurentPoly):
    """Canonical (num, den) through a polynomial gcd."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return _LP_ZERO, _LP_ONE
    return _normalize(*_cancel(num, den))


def _normalize(num: LaurentPoly, den: LaurentPoly):
    """Canonical (num, den) for a num and den without a common polynomial
    factor: den shifted to valuation 0, shared integer content removed, a
    positive leading coefficient, and a unit den as the shared unit
    polynomial."""
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
    return num, (_LP_ONE if den.is_one() else den)


ZERO = RatQ(_LP_ZERO)
ONE = RatQ(_LP_ONE)


def vpow(k) -> RatQ:
    """v^k as a field element (v = q^(1/2), so q^a is vpow(2a))."""
    return RatQ(LaurentPoly.mono(k))


def lp(*pairs) -> LaurentPoly:
    """LaurentPoly from (exp, coeff) pairs; exponents in v."""
    d = {}
    for e, c in pairs:
        d[e] = d.get(e, 0) + c
    return LaurentPoly(d)


def rq(*pairs) -> RatQ:
    """Polynomial field element from (v-exp, coeff) pairs."""
    return RatQ(lp(*pairs))
