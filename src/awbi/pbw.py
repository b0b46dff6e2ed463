"""Core machinery shared by the two algebra backends: the rank-one
exchange that straightens both, the Hopf structure on monomials derived
from each backend's generator table, the coproducts of the coideal
letters derived from it, the rescaled lattice basis that generators are
built and multiplied in, normal-form tensor elements, and the build state
that the extension processes act on, whose edge legs are coideal letters.

An AlgElem is a linear combination of length-n tensor monomials in a fixed
normal order, with coefficients in its backend's ring: the field Q(v) in
the published basis, packed Laurent polynomials in a Lattice (EdgeElem, a
subclass).  Monomials are packed into single integers per tensor factor;
term maps are plain dicts keyed by tuples of packed factors.  All values
are immutable by convention and safe to share.

Generators are built, and relation checks run, in each backend's Lattice
twin, where the presentation tables have Laurent polynomial coefficients,
so neither construction nor a check meets a denominator.  Conversion to
the published basis happens only at the edge: a finished published
generator, a residual or a printed side.  Every lattice element is an
edge-free EdgeElem on Kronecker-packed coefficients: each Laurent
polynomial becomes one int, its value at v = 2^k, at one slot width k per
element, and the element carries one certified l1 bound from the Casimir
seed through builds, products, scalings, sums and the coproducts of the
residual lift to the one conversion back.  An operation whose bound would
reach 2^(k-1) first repacks its operands at a wider slot (fit_width), so
every unpacking and zero test is exact.  The published basis, and the
lattice's table derivations, multiply term by term (Backend.mul_terms).

Coactions are only ever applied to edge legs that are still stored
symbolically as letters of a coideal alphabet (EdgeElem).  Every row of a
letter's coaction or coproduct table keeps one letter, so an edge leg stays
a single letter through any number of them.  Interior legs are permanently
in normal form; asking for a coaction there raises.
"""

from __future__ import annotations

import functools

from .qcoeff import ONE, ZERO, LaurentPoly, RatQ, vpow


class CoactionError(Exception):
    """A coaction was requested on a leg that is not a coideal letter."""


class Alphabet:
    """One coideal generator alphabet (side "R" or "L") of a backend; each
    Backend holds its own copies.

    letters: tuple of names.
    pbw[g]: the letter as an arity-1 term dict {mono: coeff}.
    tau[g]: coaction image as a list of (terms, letter) pairs, where terms
        is the non-coideal leg as an arity-1 term dict and letter is the
        retained coideal leg.  For side R the ambient leg sits left of the
        retained one; for side L it sits right.
    delta[g]: coproduct image in the same layout (the retained leg stays
        in the alphabet because the subalgebra is a coideal); filled in by
        the Backend from the monomial coproducts.
    """

    __slots__ = ("letters", "pbw", "tau", "delta")

    def __init__(self, letters, pbw, tau):
        self.letters = letters
        self.pbw = pbw
        self.tau = tau
        self.delta = None


class Backend:
    """Straightening rules, Hopf structure data and coideal alphabets for
    one algebra (instantiated once per backend module).

    A backend module supplies its presentation: the packed monomial
    layout, the straightening of two monomials, the Casimir, the letter
    PBW and coaction tables, casimir_delta, and gen_delta, which holds per
    packed field (in normal order) the coproduct of that field's generator
    as an arity-2 term dict, or None when the generator is group-like.
    The straightening takes an optional third argument, the exchange
    constant of its rank-one pair.  The module also declares its rescaling
    (weights, factor, normaliser), from which the Lattice twin is derived
    on first use (see Lattice), and the scalars (w, s, plus, minus) of its
    standard relation (see relations).  Derived here: the coproduct, counit and
    label of every monomial, the Casimir counit, and the coproduct table
    of every coideal letter.
    """

    __slots__ = ("name", "field_names", "identity", "pack", "unpack",
                 "_mul_mono_raw", "gen_delta", "casimir", "casimir_counit",
                 "alphabets", "casimir_delta", "rescaling", "relation",
                 "_lattice", "_mul_cache", "_delta_cache")

    one, zero = ONE, ZERO                       # of the coefficient ring

    def __init__(self, name, field_names, pack, unpack, mul_mono, gen_delta,
                 casimir, alphabets, casimir_delta, rescaling, relation):
        self.name = name
        self.field_names = field_names
        self.pack = pack
        self.unpack = unpack
        self._mul_mono_raw = mul_mono
        self.gen_delta = gen_delta
        self.casimir = casimir                  # arity-1 term dict
        self.alphabets = {side: Alphabet(a.letters, a.pbw, a.tau)
                          for side, a in alphabets.items()}
        self.casimir_delta = casimir_delta      # tuple of (L letter, R letter, coeff)
        self.rescaling = rescaling              # (weights, factor, normaliser)
        self.relation = relation                # (w, s, plus, minus)
        self._lattice = None
        self._mul_cache = {}
        self._delta_cache = {}
        self.identity = pack(*([0] * len(field_names)))
        # a ring scalar, also the empty-set value
        self.casimir_counit = self.zero
        for m, c in casimir.items():
            if self.counit_mono(m):
                self.casimir_counit = self.casimir_counit + c
        for side, alpha in self.alphabets.items():
            alpha.delta = self._letter_deltas(side)

    def __reduce__(self):
        # a module-level backend goes to a worker process by name, without
        # its caches; any other backend refuses rather than arrive as it
        from .relations import get_backend
        if self.name not in ("aw", "bi") or get_backend(self.name) is not self:
            raise TypeError(f"{self!r} is not a module backend and cannot be pickled")
        return get_backend, (self.name,)

    @property
    def lattice(self) -> "Lattice":
        """The rescaled twin that generators are built and multiplied in,
        derived on first use; a Lattice is its own twin."""
        if self._lattice is None:
            self._lattice = Lattice(self)
        return self._lattice

    def mul_mono(self, m1, m2):
        """Normal form of a product of two single-factor monomials, as a
        tuple of (mono, coeff) pairs.  Memoized; in a Lattice this is the
        hot path of generator construction and relation checks."""
        key = (m1, m2)
        r = self._mul_cache.get(key)
        if r is None:
            r = self._mul_mono_raw(m1, m2)
            self._mul_cache[key] = r
        return r

    def element(self, arity, terms):
        """The element of the given arity with terms, a term dict over this
        backend's ring."""
        return AlgElem(self, arity, terms)

    def mul_terms(self, a, b):
        """Product of two term dicts keyed by equal-length tuples of factor
        monomials, factor by factor under mul_mono; the parity generator
        carries all sign information, so there are no cross-factor signs.
        The published-basis product, the one a Lattice derives its tables
        through (delta_mono, the letter coproducts), and the tests'
        reference for the lattice's one product loop, EdgeElem._times,
        which splits keys at the middle leg; this loop stays leg by leg."""
        mul = self.mul_mono
        out = {}
        bterms = b.items()
        for k1, c1 in a.items():
            for k2, c2 in bterms:
                parts = [((), c1 * c2)]
                for x, y in zip(k1, k2):
                    parts = [(k + (m,), cc * fc) for k, cc in parts for m, fc in mul(x, y)]
                for k, cc in parts:
                    acc_term(out, k, cc)
        return out

    def delta_mono(self, m):
        """Coproduct of a single-factor monomial as a tuple of
        (left mono, right mono, coeff) triples: the ordered product of the
        images of its generator powers.  Memoized."""
        r = self._delta_cache.get(m)
        if r is None:
            d = {(self.identity, self.identity): self.one}
            exps = self.unpack(m)
            for i, (e, g) in enumerate(zip(exps, self.gen_delta)):
                if g is None and e:
                    x = self.pack(*(e if j == i else 0 for j in range(len(exps))))
                    d = self.mul_terms(d, {(x, x): self.one})
                elif g is not None:
                    for _ in range(e):
                        d = self.mul_terms(d, g)
            r = tuple((a, b, c) for (a, b), c in d.items())
            self._delta_cache[m] = r
        return r

    def counit_mono(self, m):
        """Whether the counit of m is 1 (else it is 0): every field that is
        not group-like has exponent 0."""
        return not any(e and g is not None
                       for e, g in zip(self.unpack(m), self.gen_delta))

    def _rows(self, name, x):
        """The rows of leg value x in the table name, as (legs, coeff) pairs
        over this backend's ring: "mul" ((m1, m2): mul_mono, legs one
        monomial), "casimir_delta" (the seed), "coproduct" (m: delta_mono),
        "counit" (m: no legs, or no row) and (side, "tau" | "delta" |
        "pbw") (a letter: its image)."""
        if name == "mul":
            return self.mul_mono(*x)
        if name in ("casimir_delta", "coproduct"):
            pairs = self.casimir_delta if name == "casimir_delta" else self.delta_mono(x)
            return [((a, b), c) for a, b, c in pairs]
        if name == "counit":
            return [((), self.one)] if self.counit_mono(x) else []
        side, table = name
        alpha = self.alphabets[side]
        if table == "pbw":
            return [((m,), c) for m, c in alpha.pbw[x].items()]
        return [((m, g) if side == "R" else (g, m), c)
                for u, g in getattr(alpha, table)[x] for m, c in u.items()]

    def mono_pretty(self, m):
        bits = [name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.field_names, self.unpack(m)) if e]
        return ".".join(bits) or "1"

    def _letter_deltas(self, side):
        """Coproduct table of one alphabet.  A one-monomial letter c*m takes
        c * delta_mono(m), each retained leg read back as a letter; the
        Casimir letter takes casimir_delta, its ambient leg expanded in the
        other alphabet."""
        alpha = self.alphabets[side]
        other = self.alphabets["L" if side == "R" else "R"]
        letter_of = {}                          # mono -> (letter, scalar)
        for g in alpha.letters:
            if len(alpha.pbw[g]) == 1:
                (m, c), = alpha.pbw[g].items()
                letter_of[m] = (g, c)
        table = {}
        for g in alpha.letters:
            rows = []
            if alpha.pbw[g] == self.casimir:
                for gl, gr, c in self.casimir_delta:
                    amb, kept = (gl, gr) if side == "R" else (gr, gl)
                    rows.append(({m: c * x for m, x in other.pbw[amb].items()}, kept))
            else:
                (m, c), = alpha.pbw[g].items()
                for a, b, dc in self.delta_mono(m):
                    amb, kept = (a, b) if side == "R" else (b, a)
                    if kept not in letter_of:
                        raise ValueError(
                            f"{self.name}: coproduct of side-{side} letter {g} "
                            f"keeps {self.mono_pretty(kept)}, which is not a letter")
                    g2, s = letter_of[kept]
                    rows.append(({amb: c * dc / s}, g2))
            table[g] = tuple(rows)
        return table

    def __repr__(self):
        return f"Backend({self.name})"


class Lattice(Backend):
    """The rescaled twin of a backend: the same monomials, each standing for
    factor^w(m) times the published one, where w(m) is the weighted sum of
    its field exponents under the backend's rescaling
    (weights, factor, normaliser).  Every coefficient here is a
    LaurentPoly.

    A generator built here is normaliser times the published one, so the
    lattice coefficient of m is normaliser * c * factor^-w(m), and a
    product of two generators is normaliser^2 times the published product.
    The presentation is converted once from the backend's through rescale:
    a field's generator coproduct by factor^(its weight), a letter c*m by
    factor^w(m), and the Casimir letter by the normaliser.  The lattice is
    then built by Backend.__init__ from that presentation, so its
    letter-coproduct tables and Casimir counit are derived in its own ring,
    through its own products, like any backend's.  The straightening is the
    backend's own, run with a rescaled exchange constant: the weighted
    fields are the exchanged pair and the factor is the inverse of the
    published constant, so each exchange step, which lowers both fields by
    one, contributes factor^(sum of weights - 1).  The relation scalars
    are (w * normaliser, s, plus, minus), as w scales a single generator.
    side_scalars[residual] is (w, s, plus, minus, 1), 1 the commutator's
    right scalar, with w, s and 1 negated for a residual lhs - rhs.
    A coefficient that is not integral raises ValueError naming the
    backend and the monomial.

    An element here is an edge-free EdgeElem: its coefficients packed at a
    slot width k, with one certified l1 bound (see EdgeElem and element).
    Every product of elements runs on that packing, in one loop that splits
    keys at the middle leg and straightens each pair of half keys once per
    product (EdgeElem._times); the table derivations (delta_mono, the
    letter coproducts) run the inherited term-dict loop, Backend.mul_terms,
    once per monomial, memoised.  Elements start at one slot width per
    instance, width (the class constant WIDTH, 64), and an operation whose
    bound would reach 2^(k-1) repacks at a multiple of it first
    (fit_width).  Each table a build or a product reads is packed once per
    width, lazily, on the instance (rows).
    """

    __slots__ = ("backend", "weights", "factor", "normaliser", "width",
                 "side_scalars", "letter_scale", "_weight", "_scales", "_back", "_tables")

    WIDTH = 64
    one, zero = LaurentPoly.mono(0), LaurentPoly.zero()

    def __init__(self, backend):
        self.backend = backend
        self.weights, self.factor, self.normaliser = backend.rescaling
        self.width = self.WIDTH
        self.letter_scale = {}  # (side, letter) -> (w, d), see _alphabet
        self._weight = {}       # mono -> w(mono)
        self._scales = {}       # (w, d) -> factor^w * normaliser^d
        self._back = {}         # (coefficient, w, degree) -> published one
        self._tables = {}       # (k, name) -> Rows; name -> its row l1 sums
        raw, den = backend._mul_mono_raw, self._scale(sum(self.weights) - 1, 0)
        alphabets = {side: self._alphabet(side, alpha)
                     for side, alpha in backend.alphabets.items()}
        casimir_delta = []
        for gl, gr, c in backend.casimir_delta:
            (wl, dl), (wr, dr) = self.letter_scale["L", gl], self.letter_scale["R", gr]
            casimir_delta.append((gl, gr, self.rescale(c, (), -wl - wr, 1 - dl - dr)))
        w, *rest = backend.relation
        super().__init__(
            f"{backend.name}-lattice", backend.field_names, backend.pack,
            backend.unpack,
            lambda m1, m2: tuple((m, self.integral(c, (m,)))
                                 for m, c in raw(m1, m2, den)),
            tuple(None if g is None else
                  {k: self.rescale(c, k, x) for k, c in g.items()}
                  for g, x in zip(backend.gen_delta, self.weights)),
            {m: self.rescale(c, (m,), 0, 1) for m, c in backend.casimir.items()},
            alphabets, tuple(casimir_delta), backend.rescaling,
            tuple(map(self.integral, (w * self.normaliser, *rest))))
        w, s, plus, minus = self.relation
        self.side_scalars = ((w, s, plus, minus, self.one),
                             (-w, -s, plus, minus, -self.one))
        self._lattice = self

    def _alphabet(self, side, alpha):
        """alpha's letters and coaction table converted; the scale (w, d)
        of each of its letters in the lattice, factor^w * normaliser^d,
        goes into letter_scale."""
        scale = {}
        for g in alpha.letters:
            if alpha.pbw[g] == self.backend.casimir:
                scale[g] = (0, 1)
            else:
                (m, _), = alpha.pbw[g].items()
                scale[g] = (self.weight(m), 0)
            self.letter_scale[side, g] = scale[g]

        def convert(terms, w, d):
            return {m: self.rescale(c, (m,), w, d) for m, c in terms.items()}

        tau = {g: tuple((convert(u, w - scale[g2][0], d - scale[g2][1]), g2)
                        for u, g2 in alpha.tau[g])
               for g, (w, d) in scale.items()}
        return Alphabet(alpha.letters,
                        {g: convert(alpha.pbw[g], w, d) for g, (w, d) in scale.items()},
                        tau)

    def weight(self, m):
        """w(m), memoised."""
        w = self._weight.get(m)
        if w is None:
            w = self._weight[m] = sum(
                x * e for x, e in zip(self.weights, self.backend.unpack(m)))
        return w

    def _scale(self, w, d):
        """factor^w * normaliser^d as a field element, memoised."""
        s = self._scales.get((w, d))
        if s is None:
            s = ONE
            for x, e in ((self.factor, w), (self.normaliser, d)):
                for _ in range(abs(e)):
                    s = s * x if e > 0 else s / x
            self._scales[(w, d)] = s
        return s

    def integral(self, c: RatQ, key=()):
        """The Laurent polynomial c, which must have denominator 1; key
        names the tensor monomial c belongs to."""
        if not c.den.is_one():
            mono = " x ".join(map(self.backend.mono_pretty, key)) or "scalar"
            raise ValueError(f"{self.backend.name}: coefficient {c.pretty()} "
                             f"of [{mono}] is not integral in the lattice")
        return c.num

    def rescale(self, c: RatQ, key, w=0, d=0):
        """The lattice coefficient at the tensor monomial key of the
        published term c * key scaled by factor^w * normaliser^d, that is
        c * factor^(w - w(key)) * normaliser^d; it must be integral."""
        return self.integral(
            c * self._scale(w - sum(map(self.weight, key)), d), key)

    def from_lattice(self, x, degree, offset=0) -> AlgElem:
        """The published element x * factor^offset / normaliser^degree for
        an edge-free packed EdgeElem x of degree generator factors (1 for a
        generator, 2 for a product of two; offset -w for a letter of scale
        (w, d)).  Each coefficient, as its canonical (P, s, k), is
        converted once per weight and degree: residuals and generators
        repeat a few."""
        k, back, weight, out = x.k, self._back, self._weight, {}
        for key, (p, s) in x.terms.items():
            try:
                w = sum(map(weight.__getitem__, key), offset)
            except KeyError:
                w = sum(map(self.weight, key), offset)
            c = (p, s, k, w, degree)
            r = back.get(c)
            if r is None:
                r = back[c] = RatQ(_kron_unpack(p, s, k)) * self._scale(w, -degree)
            out[key] = r
        return AlgElem(self.backend, x.arity, out)

    def element(self, arity, terms):
        """The term dict of Laurent polynomials terms as an element: packed
        at the instance's width, or wider if the l1 norm needs it."""
        bound = sum(map(_l1, terms.values()))
        k = _width(bound, self.width)
        return EdgeElem(self, arity, {key: _kron_pack(c, k) for key, c in terms.items()},
                        k, bound)

    def rows(self, k, name):
        """The table name of Backend._rows packed at slot width k (see
        Rows), by leg value."""
        t = self._tables.get((k, name))
        if t is None:
            t = self._tables[k, name] = Rows(k, functools.partial(self._rows, name),
                                             self._tables.setdefault(name, {}))
        return t

    def product_bound(self, a, b):
        """W = a.bound * b.bound * prod_i F_i for two elements of one arity,
        where F_i = max(1, the largest l1 sum of mul_mono(x, y) over the
        distinct leg-i monomials x of a and y of b).  W bounds the absolute
        value of every coefficient of every partial product and partial sum
        of their product (EdgeElem)."""
        rows = self.rows(self.width, "mul")
        w = a.bound * b.bound
        for xs, ys in zip(zip(*a.terms), zip(*b.terms)):
            ys = set(ys)
            w *= max(1, rows.factor({(x, y) for x in set(xs) for y in ys}))
        return w

    def __repr__(self):
        return f"Lattice({self.backend.name})"


def fit_width(bound, k):
    """The least k * 2^j with 2^(k * 2^j - 1) > bound: the slot width k
    doubles to before an element of l1 bound at most bound is formed, so
    that each of its coefficients fits one balanced base-2^k digit."""
    while bound >> (k - 1):
        k *= 2
    return k


def _width(bound, k):
    """k, or fit_width(bound, k) if bound has reached 2^(k-1): the one
    place a repack is decided."""
    return fit_width(bound, k) if bound >> (k - 1) else k


def _l1(c):
    """The l1 norm of a Laurent polynomial: the sum of its |coefficients|."""
    return sum(map(abs, c.d.values()))


def _kron_pack(c, k):
    """The Laurent polynomial c as (P, s) at slot width k (see EdgeElem):
    canonical, its lowest slot not empty."""
    d = c.d
    if len(d) == 1:
        (s, p), = d.items()
        return p, s
    s = min(d)
    return sum(x << k * (e - s) for e, x in d.items()), s


def _kron_unpack(p, s, k):
    """The Laurent polynomial packed as (p, s) at slot width k, read off as
    balanced base-2^k digits from the lowest slot up."""
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    d = {}
    while p:
        x = p & mask
        if x >= half:
            x -= full
        if x:
            d[s] = x
        p = (p - x) >> k
        s += 1
    return LaurentPoly(d, _trusted=True)


def lincomb(parts):
    """sum c x over the (c, x) of parts, LaurentPoly scalars c and lattice
    elements x of one arity, in one pass.  Its bound, sum l1(c) x.bound,
    and width, _width(bound, max x.k), are the ones the chain of scale, +
    and - reaches, so it is that chain's canonical element.  The first
    operand seeds the term dict (c x is canonical: its lowest coefficient
    is the nonzero product of the lowest ones); every other term is added
    in place.  A partial sum at a key sums a subset of the c x[key], so it
    stays below bound < 2^(k-1) and is exact in any order.  A zero scalar
    drops out with its operand, as x.scale(0) is a fresh zero."""
    x = parts[0][1]
    parts = [(c, y) for c, y in parts if c]
    bound = sum(_l1(c) * y.bound for c, y in parts)
    k = _width(bound, max((y.k for _, y in parts), default=x.backend.lattice.width))
    mask, out = (1 << k) - 1, {}
    for c, y in parts:
        pc, sc = _kron_pack(c, k)
        terms = y._at(k).terms
        if not out:
            out = (dict(terms) if (pc, sc) == (1, 0) else
                   {key: (p * pc, s + sc) for key, (p, s) in terms.items()})
            continue
        for key, (p, s) in terms.items():
            p, s = p * pc, s + sc
            cur = out.get(key)
            if cur is not None:
                p0, s0 = cur
                if s0 < s:
                    p, s = p0 + (p << k * (s - s0)), s0
                elif s0 > s:
                    p += p0 << k * (s0 - s)
                else:               # a zero sum is dropped, an
                    p += p0         # emptied low slot stripped
                    if not p:
                        del out[key]
                        continue
                    while not p & mask:
                        p >>= k
                        s += 1
            out[key] = (p, s)
    return EdgeElem(x.backend, x.arity, out, k, bound)


def _halves(x, h):
    """x's terms split at leg h: lists of (right half's index, P, s), one
    per distinct left half key[:h], then the distinct left and right halves."""
    lefts, rights = {}, {}
    for key, (p, s) in x.terms.items():
        j = rights.setdefault(key[h:], len(rights))
        lefts.setdefault(key[:h], []).append((j, p, s))
    return list(lefts.values()), list(lefts), list(rights)


def _half_products(legs, xs, ys):
    """[[x * y for y in ys] for x in xs] for half keys, each product a list
    of (half key, P, s) expanded from one row of legs per leg; the rows of
    a leg have distinct monomials, so these half keys are distinct."""
    def times(x, y):
        parts = [((), 1, 0)]
        for xy in zip(x, y):
            parts = [(kk + (m,), p * pf, s + sf)
                     for kk, p, s in parts for m, pf, sf in legs[xy]]
        return parts
    return [[times(x, y) for y in ys] for x in xs]


class Rows(dict):
    """One table of Lattice.rows packed at slot width k, filled on first
    use: rows[x] is a tuple of (legs, P, s), the rows of leg value x from
    source(x), an iterable of (legs, Laurent polynomial).  l1, shared by
    the table's widths, memoises each leg value's row l1 sum."""

    __slots__ = ("k", "source", "l1")

    def __init__(self, k, source, l1):
        super().__init__()
        self.k, self.source, self.l1 = k, source, l1

    def __missing__(self, x):
        r = self[x] = tuple((legs, *_kron_pack(c, self.k)) for legs, c in self.source(x))
        return r

    def factor(self, values):
        """The largest row l1 sum over a set of leg values, 0 for none:
        substituting these values multiplies an l1 bound by it."""
        for x in values.difference(self.l1):
            self.l1[x] = sum(_l1(c) for _, c in self.source(x))
        return max(map(self.l1.__getitem__, values), default=0)


# ---------------------------------------------------------------------------
# term-dict helpers
# ---------------------------------------------------------------------------

def acc_term(out, key, coeff):
    cur = out.get(key)
    if cur is None:
        if coeff:
            out[key] = coeff
    else:
        s = cur + coeff
        if s:
            out[key] = s
        else:
            del out[key]


def term_dict(*pairs):
    """Term dict from (key, coeff) pairs, merging repeated keys."""
    out = {}
    for k, c in pairs:
        acc_term(out, k, c)
    return out


@functools.cache
def exchange(c, a, sign, step, den, wx, wy):
    """X^c Y^a as {(a', t, c'): coeff} in the order Y^a' T^t X^c', for a
    rank-one pair with
        X Y = sign Y X + den (T^step - T^-step),
        T X = v^wx X T,   T Y = v^wy Y T   (v = q^(1/2)).
    One step X Y^a = sign Y (X Y^(a-1)) + den (T^step - T^-step) Y^(a-1);
    then X^c Y^a = X^(c-1) (X Y^a), moving each T left past the X's."""
    if c == 0 or a == 0:
        return {(a, 0, c): ONE}
    out = {}
    if c == 1:
        for (a1, t1, c1), x in exchange(1, a - 1, sign, step, den, wx, wy).items():
            acc_term(out, (a1 + 1, t1, c1), x if sign > 0 else -x)
        w = wy * step * (a - 1)
        acc_term(out, (a - 1, step, 0), vpow(w) * den)
        acc_term(out, (a - 1, -step, 0), -(vpow(-w) * den))
        return out
    for (a1, t1, c1), x in exchange(1, a, sign, step, den, wx, wy).items():
        for (a2, t2, c2), y in exchange(c - 1, a1, sign, step, den, wx, wy).items():
            acc_term(out, (a2, t1 + t2, c1 + c2), x * y * vpow(-wx * t1 * c2))
    return out


# ---------------------------------------------------------------------------
# AlgElem
# ---------------------------------------------------------------------------

class AlgElem:
    """Normal-form element of the n-fold tensor power of a backend algebra.

    terms maps tuples of packed factor monomials to field coefficients.
    Equality is term-map equality, which decides algebra equality because
    the monomials form a basis.
    """

    __slots__ = ("backend", "arity", "terms")

    def __init__(self, backend, arity, terms):
        self.backend = backend
        self.arity = arity
        self.terms = terms

    # -- constructors -------------------------------------------------------

    # each builds through backend.element: an AlgElem in the published
    # basis, a packed EdgeElem in a Lattice

    @staticmethod
    def zero(backend, arity):
        return backend.element(arity, {})

    @staticmethod
    def one(backend, arity):
        key = (backend.identity,) * arity
        return backend.element(arity, {key: backend.one})

    @staticmethod
    def scalar(backend, arity, c: RatQ):
        if c.is_zero():
            return AlgElem.zero(backend, arity)
        return backend.element(arity, {(backend.identity,) * arity: c})

    @staticmethod
    def mono(backend, exps, coeff=None):
        """Arity-1 element coeff (default: the ring's one) times the
        monomial with field exponents exps."""
        if coeff is None:
            coeff = backend.one
        if coeff.is_zero():
            return AlgElem.zero(backend, 1)
        return backend.element(1, {(backend.pack(*exps),): coeff})

    @staticmethod
    def casimir(backend):
        return backend.element(1, {(m,): c for m, c in backend.casimir.items()})

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def term_count(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, AlgElem)
                and self.backend is other.backend
                and self.arity == other.arity
                and self.terms == other.terms)

    # -- linear structure -----------------------------------------------------

    def _check(self, other):
        if self.backend is not other.backend:
            raise ValueError("backend mismatch")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    # +, -, unary - and the Hopf structure are defined once, here; a ring
    # supplies the loops _combine, scale, _times and _substitute

    def __add__(self, other):
        self._check(other)
        return self._combine(other, 1)

    def __sub__(self, other):
        self._check(other)
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-self.backend.one)

    def _combine(self, other, sign):
        """self + sign * other, term by term."""
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc_term(out, k, c if sign > 0 else -c)
        return AlgElem(self.backend, self.arity, out)

    def scale(self, c: RatQ):
        if c.is_zero():
            return AlgElem.zero(self.backend, self.arity)
        if c.is_one():
            return self
        return AlgElem(self.backend, self.arity,
                       {k: c * x for k, x in self.terms.items()})

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """Normal-form product: term by term here (Backend.mul_terms), on
        packed coefficients in a Lattice (EdgeElem._times)."""
        self._check(other)
        return self._times(other)

    def _times(self, other):
        return AlgElem(self.backend, self.arity,
                       self.backend.mul_terms(self.terms, other.terms))

    # -- Hopf structure ---------------------------------------------------------

    def coproduct(self, pos: int) -> "AlgElem":
        """Apply the coproduct to the factor at position pos (1-based);
        arity grows by one."""
        self._check_pos(pos)
        return self._substitute(pos - 1, "coproduct", self.arity + 1)

    def counit(self, pos: int) -> "AlgElem":
        """Collapse the factor at position pos to its counit scalar;
        arity shrinks by one."""
        self._check_pos(pos)
        return self._substitute(pos - 1, "counit", self.arity - 1)

    def _check_pos(self, pos):
        if not 1 <= pos <= self.arity:
            raise ValueError(f"position {pos} out of range 1..{self.arity}")

    def _substitute(self, i, table, arity):
        """Leg i of every key replaced by its rows in the table
        (Backend._rows), term by term, giving an element of the given
        arity."""
        rows, out = self.backend._rows, {}
        for k, c in self.terms.items():
            head, tail = k[:i], k[i + 1:]
            for legs, rc in rows(table, k[i]):
                acc_term(out, head + legs + tail, c * rc)
        return AlgElem(self.backend, arity, out)

    def pad(self, left: int, right: int) -> "AlgElem":
        """Tensor identity legs onto both sides."""
        if left == 0 and right == 0:
            return self
        idl = (self.backend.identity,) * left
        idr = (self.backend.identity,) * right
        return AlgElem(self.backend, self.arity + left + right,
                       {idl + k + idr: c for k, c in self.terms.items()})

    # -- serialization -------------------------------------------------------

    def sorted_keys(self):
        return sorted(self.terms, key=lambda k: tuple(map(self.backend.unpack, k)))

    def to_json(self):
        unpack = self.backend.unpack
        return {
            "arity": self.arity,
            "terms": [
                {"mono": [list(unpack(m)) for m in k],
                 "coeff": self.terms[k].to_json()}
                for k in self.sorted_keys()
            ],
        }

    @staticmethod
    def from_json(backend, obj) -> "AlgElem":
        terms = {}
        arity = int(obj["arity"])
        for t in obj["terms"]:
            key = tuple(backend.pack(*f) for f in t["mono"])
            if len(key) != arity:
                raise ValueError(f"term {t['mono']} does not have {arity} legs")
            acc_term(terms, key, RatQ.from_json(t["coeff"]))
        return AlgElem(backend, arity, terms)

    def pretty(self, max_terms=None):
        if not self.terms:
            return "0"
        backend = self.backend
        bits = []
        keys = self.sorted_keys()
        shown = keys if max_terms is None else keys[:max_terms]
        for k in shown:
            mono = " x ".join(backend.mono_pretty(m) for m in k)
            bits.append(f"{self.terms[k].pretty()} * [{mono}]")
        if max_terms is not None and len(keys) > max_terms:
            bits.append(f"... ({len(keys) - max_terms} more)")
        return "\n".join(bits)

    def __repr__(self):
        return (f"AlgElem({self.backend.name}, arity={self.arity}, "
                f"terms={len(self.terms)})")


def bracket_q(x: AlgElem, y: AlgElem, plus: RatQ, minus: RatQ) -> AlgElem:
    """plus * x*y + minus * y*x (covers commutators, q-commutators and
    q-anticommutators by choice of scalars)."""
    return (x * y).scale(plus) + (y * x).scale(minus)


# ---------------------------------------------------------------------------
# EdgeElem: lattice elements, and build states with symbolic edge legs
# ---------------------------------------------------------------------------

class EdgeElem(AlgElem):
    """A tensor element on packed lattice coefficients: every element of a
    Lattice, which takes the AlgElem operations, and every build state,
    whose outer legs may still be coideal letters.

    Keys are flat tuples of legs: the first leg is a side-L letter name when
    has_l, the last one is a side-R letter name when has_r, and every other
    leg is a packed monomial in normal form.  Each row of a letter's
    coaction or coproduct table keeps one letter, so the edge legs never
    become longer words.

    The coefficients live in the backend's lattice, even for a build over a
    published backend.  A coefficient c = sum_e c_e v^e of valuation s is
    (P, s) with P = sum_e c_e 2^(k(e - s)): c v^-s at v = 2^k, one int
    whose slot e - s holds c_e, at the element's slot width k.  v -> 2^k is
    a ring morphism, so a product is (P1 P2, s1 + s2) and a sum shifts the
    operand of larger s left by k times the difference, exactly.  The
    balanced base-2^k digits of P are c's coefficients while those lie in
    [-2^(k-1), 2^(k-1)) (_kron_unpack).  Stored values are canonical, their
    lowest slot not empty, so equal elements at one width have equal terms.

    bound < 2^(k-1) certifies the element's l1 norm, the sum of its
    coefficients' l1 norms, so every unpacking and zero test is exact.  A
    linear combination sum c_i x_i (lincomb: every sum, difference and
    scaling) takes sum l1(c_i) bound_i, a product takes
    Lattice.product_bound, pad keeps it, and a substitution (_substitute:
    the seed, coactions, coproducts, counits, each side's letter PBW in
    expand) multiplies it by the largest row l1 sum of its table over the
    leg values present.  An operation whose bound would reach 2^(k-1)
    repacks its operands at fit_width first.  A build over a published
    backend converts in finalize by seed_scale, the scale (w, d) of where it
    started: the seed is normaliser times the Casimir's coproduct, a letter
    factor^w * normaliser^d times the published one.
    """

    __slots__ = ("has_l", "has_r", "k", "bound", "seed_scale")

    def __init__(self, backend, arity, terms, k, bound, has_l=False, has_r=False,
                 seed_scale=None):
        super().__init__(backend, arity, terms)
        self.k = k
        self.bound = bound
        self.has_l = has_l
        self.has_r = has_r
        self.seed_scale = seed_scale

    def _at(self, k):
        """The same element at slot width k >= self.k."""
        if k == self.k:
            return self
        return EdgeElem(self.backend, self.arity,
                        {key: _kron_pack(_kron_unpack(p, s, self.k), k)
                         for key, (p, s) in self.terms.items()},
                        k, self.bound, self.has_l, self.has_r, self.seed_scale)

    def laurent_terms(self):
        """The terms with each coefficient unpacked to a LaurentPoly."""
        k = self.k
        return {key: _kron_unpack(p, s, k) for key, (p, s) in self.terms.items()}

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def casimir_delta(backend) -> "EdgeElem":
        """The coproduct of the Casimir with both legs kept symbolic; this
        is the seed every multi-element construction starts from."""
        one = EdgeElem(backend, 1, {("casimir",): (1, 0)}, backend.lattice.width, 1,
                       seed_scale=(0, 1))
        return one._substitute(0, "casimir_delta", 2, True, True)

    @staticmethod
    def letter(backend, side, name) -> "EdgeElem":
        """The letter name of the side-R or side-L alphabet as a one-leg
        element, its leg kept symbolic."""
        if name not in backend.alphabets[side].letters:
            raise ValueError(f"{name} is not a side-{side} letter")
        lat = backend.lattice
        return EdgeElem(backend, 1, {(name,): (1, 0)}, lat.width, 1,
                        side == "L", side == "R", lat.letter_scale[side, name])

    # -- the ring operations of a lattice element --------------------------------

    def __eq__(self, other):
        if not (isinstance(other, EdgeElem) and self.backend is other.backend
                and self.arity == other.arity and self.has_l == other.has_l
                and self.has_r == other.has_r):
            return False
        k = max(self.k, other.k)
        return self._at(k).terms == other._at(k).terms

    def _combine(self, other, sign):
        return lincomb([(Lattice.one, self), (LaurentPoly.mono(0, sign), other)])

    def scale(self, c: LaurentPoly):
        """c times the element (lincomb)."""
        return self if c.is_one() else lincomb([(c, self)])

    def _times(self, other):
        """The normal-form product, met in the middle: keys split at leg
        h = (arity + 1) // 2, and each factor's terms are grouped by left
        half (_halves).  A product term is c1 c2 times one term of the left
        halves' product and one of the right halves', each expanded leg by
        leg from the rows of mul_mono (Lattice.rows).  Those half products
        are formed once per product, for every pair of distinct halves
        (_half_products), and every such pair meets in the pair loop, which
        looks up one entry per half, not one per leg.  Each product term
        has l1 norm at most l1(c1) l1(c2) prod_i F_i, and all of them sum
        to at most W = Lattice.product_bound.  A partial sum, in any order,
        sums a subset of them, so it stays below W and is exact at
        _width(W): the canonical result does not depend on the order."""
        lat = self.backend
        if not self.terms or not other.terms:
            return AlgElem.zero(lat, self.arity)
        bound = lat.product_bound(self, other)
        k = _width(bound, max(self.k, other.k))
        legs, mask, h = lat.rows(k, "mul"), (1 << k) - 1, (self.arity + 1) // 2
        (ga, la, ra), (gb, lb, rb) = (_halves(x._at(k), h) for x in (self, other))
        right, out = _half_products(legs, ra, rb), {}
        for lrow, terms_a in zip(_half_products(legs, la, lb), ga):
            for lefts, terms_b in zip(lrow, gb):
                for i, p1, s1 in terms_a:
                    rrow = right[i]
                    for j, p2, s2 in terms_b:
                        p12, s12 = p1 * p2, s1 + s2
                        for rk, pr, sr in rrow[j]:
                            for lk, pl, sl in lefts:
                                kk, p, s = lk + rk, p12 * pl * pr, s12 + sl + sr
                                cur = out.get(kk)
                                if cur is not None:     # as in lincomb, inlined
                                    p0, s0 = cur
                                    if s0 < s:
                                        p, s = p0 + (p << k * (s - s0)), s0
                                    elif s0 > s:
                                        p += p0 << k * (s0 - s)
                                    else:
                                        p += p0
                                        if not p:
                                            del out[kk]
                                            continue
                                        while not p & mask:
                                            p >>= k
                                            s += 1
                                out[kk] = (p, s)
        return EdgeElem(lat, self.arity, out, k, bound)

    def pad(self, left: int, right: int) -> "EdgeElem":
        if left == 0 and right == 0:
            return self
        idl = (self.backend.identity,) * left
        idr = (self.backend.identity,) * right
        return EdgeElem(self.backend, self.arity + left + right,
                        {idl + key + idr: c for key, c in self.terms.items()},
                        self.k, self.bound)

    # -- coactions and coproducts on edges --------------------------------------

    def tau_r(self) -> "EdgeElem":
        """Apply the right coaction to the rightmost leg (must be a letter);
        the ambient new leg goes into normal form, the retained leg stays
        a letter.  Arity grows by one."""
        return self._edge_apply("R", "tau")

    def tau_l(self) -> "EdgeElem":
        return self._edge_apply("L", "tau")

    def delta_r(self) -> "EdgeElem":
        """Coproduct on the rightmost leg, re-expressing the retained outer
        leg in the same alphabet (possible because the subalgebra is a
        coideal)."""
        return self._edge_apply("R", "delta")

    def delta_l(self) -> "EdgeElem":
        return self._edge_apply("L", "delta")

    def _edge_apply(self, side, table_name):
        if not (self.has_r if side == "R" else self.has_l):
            raise CoactionError(f"the side-{side} edge leg is already in normal form")
        return self._substitute(self.arity - 1 if side == "R" else 0,
                                (side, table_name), self.arity + 1, self.has_l, self.has_r)

    def _substitute(self, i, table, arity, has_l=False, has_r=False) -> "EdgeElem":
        """Leg i of every key replaced by its rows in the packed table
        (Lattice.rows), giving an element of the given arity: every build
        step, and each coproduct and counit of a lattice element, runs
        here."""
        lat = self.backend.lattice
        bound = self.bound * lat.rows(self.k, table).factor({key[i] for key in self.terms})
        x = self._at(_width(bound, self.k))
        k, out = x.k, {}
        rows, mask = lat.rows(k, table), (1 << k) - 1
        for key, (p, s) in x.terms.items():
            head, tail = key[:i], key[i + 1:]
            for legs, pr, sr in rows[key[i]]:
                kk, pp, ss = head + legs + tail, p * pr, s + sr
                cur = out.get(kk)
                if cur is not None:         # as in lincomb, inlined
                    p0, s0 = cur
                    if s0 < ss:
                        pp, ss = p0 + (pp << k * (ss - s0)), s0
                    elif s0 > ss:
                        pp += p0 << k * (s0 - ss)
                    else:
                        pp += p0
                        if not pp:
                            del out[kk]
                            continue
                        while not pp & mask:
                            pp >>= k
                            ss += 1
                out[kk] = (pp, ss)
        return EdgeElem(self.backend, arity, out, k, bound, has_l, has_r, self.seed_scale)

    # -- operations on interior (normal-form) legs ------------------------------

    def _mid_index(self, pos):
        i = pos - 1
        if not self.has_l <= i < self.arity - self.has_r:
            raise CoactionError(f"position {pos} is not an interior leg")
        return i

    def delta_mid(self, pos) -> "EdgeElem":
        """Coproduct on an interior normal-form leg."""
        return self._substitute(self._mid_index(pos), "coproduct", self.arity + 1,
                                self.has_l, self.has_r)

    def counit_mid(self, pos) -> "EdgeElem":
        return self._substitute(self._mid_index(pos), "counit", self.arity - 1,
                                self.has_l, self.has_r)

    # -- finalization ------------------------------------------------------------

    def expand(self) -> "EdgeElem":
        """The edge letters expanded to normal form: an edge-free state."""
        x = self
        if x.has_l:
            x = x._substitute(0, ("L", "pbw"), x.arity, False, x.has_r)
        if x.has_r:
            x = x._substitute(x.arity - 1, ("R", "pbw"), x.arity)
        return x

    def finalize(self) -> AlgElem:
        """Expand the remaining edge letters to normal form: over a lattice
        the packed element itself, over a published backend converted by
        seed_scale."""
        x, lat = self.expand(), self.backend.lattice
        if self.backend is lat:
            return x
        w, d = self.seed_scale
        return lat.from_lattice(x, d, -w)

    def __repr__(self):
        return (f"EdgeElem({self.backend.name}, arity={self.arity}, "
                f"terms={len(self.terms)}, edges={'L' if self.has_l else ''}"
                f"{'R' if self.has_r else ''})")
