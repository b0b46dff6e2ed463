"""Core machinery shared by the two algebra backends: the Hopf structure
on monomials derived from each backend's generator table, normal-form
tensor elements, coideal edge words, and the build state that the
extension processes act on.

An AlgElem is a linear combination of length-n tensor monomials in a fixed
normal order, with field coefficients.  Monomials are packed into single
integers per tensor factor; term maps are plain dicts keyed by tuples of
packed factors.  All values are immutable by convention and safe to share.

Coactions are only ever applied to edge legs that are still stored
symbolically as words over a coideal alphabet (EdgeElem).  Interior legs
are permanently in normal form; asking for a coaction there raises.
"""

from __future__ import annotations

from .qcoeff import ONE, ZERO, RatQ


class CoactionError(Exception):
    """A coaction was requested on a leg that is not a coideal word."""


class Alphabet:
    """One coideal generator alphabet (side "R" or "L") of a backend.

    letters: tuple of names.
    pbw[g]: the letter as an arity-1 term dict {mono: coeff}.
    tau[g]: coaction image as a list of (terms, letter) pairs, where terms
        is the non-coideal leg as an arity-1 term dict and letter is the
        retained coideal leg.  For side R the ambient leg sits left of the
        retained one; for side L it sits right.
    delta[g]: coproduct image in the same layout (the retained leg stays
        in the alphabet because the subalgebra is a coideal).
    """

    __slots__ = ("side", "letters", "pbw", "tau", "delta",
                 "_word_pbw_cache", "_word_img_cache")

    def __init__(self, side, letters, pbw, tau, delta):
        self.side = side
        self.letters = letters
        self.pbw = pbw
        self.tau = tau
        self.delta = delta
        self._word_pbw_cache = {}
        self._word_img_cache = {}


class Backend:
    """Straightening rules, Hopf structure data and coideal alphabets for
    one algebra (instantiated once per backend module).

    A backend module supplies what is specific to its algebra: the packed
    monomial layout, the straightening of two monomials, the Casimir and
    coideal tables, and gen_delta, which holds per packed field (in normal
    order) the coproduct of that field's generator as an arity-2 term dict,
    or None when the generator is group-like.  The coproduct, counit and
    label of every monomial are derived here from gen_delta and
    field_names.
    """

    __slots__ = ("name", "field_names", "identity", "pack", "unpack",
                 "_mul_mono_raw", "gen_delta", "casimir", "casimir_counit",
                 "alphabets", "casimir_delta", "_mul_cache", "_delta_cache")

    def __init__(self, name, field_names, pack, unpack, mul_mono, gen_delta,
                 casimir, casimir_counit, alphabets, casimir_delta):
        self.name = name
        self.field_names = field_names
        self.pack = pack
        self.unpack = unpack
        self._mul_mono_raw = mul_mono
        self.gen_delta = gen_delta
        self.casimir = casimir                  # arity-1 term dict
        self.casimir_counit = casimir_counit    # RatQ scalar, also the empty-set value
        self.alphabets = alphabets              # {"R": Alphabet, "L": Alphabet}
        self.casimir_delta = casimir_delta      # tuple of (L letter, R letter, coeff)
        self._mul_cache = {}
        self._delta_cache = {}
        self.identity = pack(*([0] * len(field_names)))

    def __reduce__(self):
        # each backend is one module-level instance: a worker process
        # sends it back by name, without its caches
        from .relations import get_backend
        return get_backend, (self.name,)

    def mul_mono(self, m1, m2):
        """Normal form of a product of two single-factor monomials, as a
        tuple of (mono, coeff) pairs.  Memoized; this is the hot path."""
        key = (m1, m2)
        r = self._mul_cache.get(key)
        if r is None:
            r = self._mul_mono_raw(m1, m2)
            self._mul_cache[key] = r
        return r

    def delta_mono(self, m):
        """Coproduct of a single-factor monomial as a tuple of
        (left mono, right mono, coeff) triples: the ordered product of the
        images of its generator powers.  Memoized."""
        r = self._delta_cache.get(m)
        if r is None:
            d = {(self.identity, self.identity): ONE}
            exps = self.unpack(m)
            for i, (e, g) in enumerate(zip(exps, self.gen_delta)):
                if g is None and e:
                    x = self.pack(*(e if j == i else 0 for j in range(len(exps))))
                    d = mul_terms(self.mul_mono, d, {(x, x): ONE})
                elif g is not None:
                    for _ in range(e):
                        d = mul_terms(self.mul_mono, d, g)
            r = tuple((a, b, c) for (a, b), c in d.items())
            self._delta_cache[m] = r
        return r

    def counit_mono(self, m):
        """1 when every field that is not group-like has exponent 0."""
        for e, g in zip(self.unpack(m), self.gen_delta):
            if e and g is not None:
                return ZERO
        return ONE

    def mono_pretty(self, m):
        bits = [name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.field_names, self.unpack(m)) if e]
        return ".".join(bits) or "1"

    def __repr__(self):
        return f"Backend({self.name})"


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


def dict_mul1(backend, a, b):
    """Product of two arity-1 term dicts."""
    out = {}
    mul = backend.mul_mono
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c12 = c1 * c2
            for m, c in mul(m1, m2):
                acc_term(out, m, c12 * c)
    return out


def mul_terms(mul, a, b):
    """Product of two term dicts keyed by equal-length tuples of factor
    monomials.  Tensor factors multiply independently under the
    single-factor product mul; the parity generator carries all sign
    information, so there are no cross-factor signs."""
    out = {}
    bterms = b.items()
    for k1, c1 in a.items():
        for k2, c2 in bterms:
            parts = [((), c1 * c2)]
            for x, y in zip(k1, k2):
                fr = mul(x, y)
                if len(fr) == 1:
                    m, fc = fr[0]
                    if fc.is_one():
                        parts = [(k + (m,), cc) for k, cc in parts]
                    else:
                        parts = [(k + (m,), cc * fc) for k, cc in parts]
                else:
                    parts = [(k + (m,), cc * fc)
                             for k, cc in parts for m, fc in fr]
            for k, cc in parts:
                acc_term(out, k, cc)
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

    @staticmethod
    def zero(backend, arity):
        return AlgElem(backend, arity, {})

    @staticmethod
    def one(backend, arity):
        key = (backend.identity,) * arity
        return AlgElem(backend, arity, {key: ONE})

    @staticmethod
    def scalar(backend, arity, c: RatQ):
        if c.is_zero():
            return AlgElem.zero(backend, arity)
        return AlgElem(backend, arity, {(backend.identity,) * arity: c})

    @staticmethod
    def from_factor_dict(backend, d):
        """Arity-1 element from a term dict."""
        return AlgElem(backend, 1, {(m,): c for m, c in d.items()})

    @staticmethod
    def casimir(backend):
        return AlgElem.from_factor_dict(backend, backend.casimir)

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

    def __hash__(self):
        raise TypeError("AlgElem is not hashable")

    # -- linear structure -----------------------------------------------------

    def _check(self, other):
        if self.backend is not other.backend:
            raise ValueError("backend mismatch")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc_term(out, k, c)
        return AlgElem(self.backend, self.arity, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc_term(out, k, -c)
        return AlgElem(self.backend, self.arity, out)

    def __neg__(self):
        return AlgElem(self.backend, self.arity,
                       {k: -c for k, c in self.terms.items()})

    def scale(self, c: RatQ):
        if c.is_zero():
            return AlgElem.zero(self.backend, self.arity)
        if c.is_one():
            return self
        return AlgElem(self.backend, self.arity,
                       {k: c * x for k, x in self.terms.items()})

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """Normal-form product (see mul_terms)."""
        self._check(other)
        return AlgElem(self.backend, self.arity,
                       mul_terms(self.backend.mul_mono, self.terms, other.terms))

    # -- Hopf structure ---------------------------------------------------------

    def coproduct(self, pos: int) -> "AlgElem":
        """Apply the coproduct to the factor at position pos (1-based);
        arity grows by one."""
        if not 1 <= pos <= self.arity:
            raise ValueError(f"position {pos} out of range 1..{self.arity}")
        backend = self.backend
        dm = backend.delta_mono
        out = {}
        i = pos - 1
        for k, c in self.terms.items():
            head, tail = k[:i], k[i + 1:]
            for ma, mb, dc in dm(k[i]):
                acc_term(out, head + (ma, mb) + tail, c * dc)
        return AlgElem(backend, self.arity + 1, out)

    def counit(self, pos: int) -> "AlgElem":
        """Collapse the factor at position pos to its counit scalar;
        arity shrinks by one."""
        if not 1 <= pos <= self.arity:
            raise ValueError(f"position {pos} out of range 1..{self.arity}")
        backend = self.backend
        eps = backend.counit_mono
        out = {}
        i = pos - 1
        for k, c in self.terms.items():
            e = eps(k[i])
            if e.is_zero():
                continue
            acc_term(out, k[:i] + k[i + 1:], c * e)
        return AlgElem(backend, self.arity - 1, out)

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
        for t in obj["terms"]:
            key = tuple(backend.pack(*f) for f in t["mono"])
            acc_term(terms, key, RatQ.from_json(t["coeff"]))
        return AlgElem(backend, int(obj["arity"]), terms)

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
# CoidealWord
# ---------------------------------------------------------------------------

class CoidealWord:
    """Linear combination of finite words over one coideal alphabet.

    Words multiply by concatenation; expand() substitutes each letter's
    normal form and multiplies out, giving the arity-1 element the word
    combination represents.
    """

    __slots__ = ("backend", "side", "terms")

    def __init__(self, backend, side, terms):
        self.backend = backend
        self.side = side
        self.terms = terms  # {word tuple: coeff}

    @staticmethod
    def letter(backend, side, name):
        if name not in backend.alphabets[side].letters:
            raise ValueError(f"{name} is not a side-{side} letter")
        return CoidealWord(backend, side, {(name,): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc_term(out, w, c)
        return CoidealWord(self.backend, self.side, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc_term(out, w, -c)
        return CoidealWord(self.backend, self.side, out)

    def scale(self, c):
        return CoidealWord(self.backend, self.side,
                           {w: x * c for w, x in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                acc_term(out, w1 + w2, c1 * c2)
        return CoidealWord(self.backend, self.side, out)

    def expand(self) -> AlgElem:
        alpha = self.backend.alphabets[self.side]
        out = {}
        for w, c in self.terms.items():
            for m, x in _word_pbw(self.backend, alpha, w).items():
                acc_term(out, m, c * x)
        return AlgElem.from_factor_dict(self.backend, out)

    def __repr__(self):
        return f"CoidealWord({self.backend.name}/{self.side}, {self.terms})"


def _word_pbw(backend, alpha: Alphabet, word):
    d = alpha._word_pbw_cache.get(word)
    if d is None:
        d = {backend.identity: ONE}
        for g in word:
            d = dict_mul1(backend, d, alpha.pbw[g])
        alpha._word_pbw_cache[word] = d
    return d


def _word_image(backend, alpha: Alphabet, table_name, word):
    """Image of a word under the coaction or coproduct table, multiplied
    out: list of (ambient arity-1 term dict, retained word, coeff)."""
    key = (table_name, word)
    r = alpha._word_img_cache.get(key)
    if r is None:
        table = alpha.tau if table_name == "tau" else alpha.delta
        parts = [({backend.identity: ONE}, (), ONE)]
        for g in word:
            img = table[g]
            parts = [
                (dict_mul1(backend, u, ug), w + (g2,), c)
                for (u, w, c) in parts
                for (ug, g2) in img
            ]
        r = tuple(parts)
        alpha._word_img_cache[key] = r
    return r


# ---------------------------------------------------------------------------
# EdgeElem: build state with symbolic edge legs
# ---------------------------------------------------------------------------

class EdgeElem:
    """Tensor element whose outer legs may still be coideal words.

    Keys are (lword, mids, rword) with lword/rword either a word tuple or
    None (edge already in normal form and merged into mids).  The flags
    has_l / has_r are uniform over all terms.
    """

    __slots__ = ("backend", "has_l", "has_r", "terms")

    def __init__(self, backend, has_l, has_r, terms):
        self.backend = backend
        self.has_l = has_l
        self.has_r = has_r
        self.terms = terms

    @property
    def arity(self):
        for (l, mids, r) in self.terms:
            return len(mids) + (l is not None) + (r is not None)
        return (1 if self.has_l else 0) + (1 if self.has_r else 0)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def casimir_delta(backend) -> "EdgeElem":
        """The coproduct of the Casimir with both legs kept symbolic; this
        is the seed every multi-element construction starts from."""
        terms = {}
        for gl, gr, c in backend.casimir_delta:
            acc_term(terms, ((gl,), (), (gr,)), c)
        return EdgeElem(backend, True, True, terms)

    @staticmethod
    def from_word(word: CoidealWord) -> "EdgeElem":
        if word.side == "R":
            terms = {(None, (), w): c for w, c in word.terms.items()}
            return EdgeElem(word.backend, False, True, terms)
        terms = {(w, (), None): c for w, c in word.terms.items()}
        return EdgeElem(word.backend, True, False, terms)

    # -- coactions and coproducts on edges --------------------------------------

    def tau_r(self) -> "EdgeElem":
        """Apply the right coaction to the rightmost leg (must be a word);
        the ambient new leg goes into normal form, the retained leg stays
        a word.  Arity grows by one."""
        if not self.has_r:
            raise CoactionError("rightmost leg is already in normal form")
        return self._edge_apply("R", "tau")

    def tau_l(self) -> "EdgeElem":
        if not self.has_l:
            raise CoactionError("leftmost leg is already in normal form")
        return self._edge_apply("L", "tau")

    def delta_r(self) -> "EdgeElem":
        """Coproduct on the rightmost leg, re-expressing the retained outer
        leg in the same alphabet (possible because the subalgebra is a
        coideal)."""
        if not self.has_r:
            raise CoactionError("rightmost leg is already in normal form")
        return self._edge_apply("R", "delta")

    def delta_l(self) -> "EdgeElem":
        if not self.has_l:
            raise CoactionError("leftmost leg is already in normal form")
        return self._edge_apply("L", "delta")

    def _edge_apply(self, side, table_name):
        backend = self.backend
        alpha = backend.alphabets[side]
        out = {}
        if side == "R":
            for (l, mids, w), c in self.terms.items():
                for (u, w2, ci) in _word_image(backend, alpha, table_name, w):
                    cc = c * ci
                    for m, cu in u.items():
                        acc_term(out, (l, mids + (m,), w2), cc * cu)
        else:
            for (w, mids, r), c in self.terms.items():
                for (u, w2, ci) in _word_image(backend, alpha, table_name, w):
                    cc = c * ci
                    for m, cu in u.items():
                        acc_term(out, (w2, (m,) + mids, r), cc * cu)
        return EdgeElem(backend, self.has_l, self.has_r, out)

    # -- operations on interior (normal-form) legs ------------------------------

    def _mid_index(self, pos):
        i = pos - 1 - (1 if self.has_l else 0)
        n_mid = self.arity - (1 if self.has_l else 0) - (1 if self.has_r else 0)
        if not 0 <= i < n_mid:
            raise CoactionError(f"position {pos} is not an interior leg")
        return i

    def delta_mid(self, pos) -> "EdgeElem":
        """Coproduct on an interior normal-form leg."""
        backend = self.backend
        i = self._mid_index(pos)
        dm = backend.delta_mono
        out = {}
        for (l, mids, r), c in self.terms.items():
            head, tail = mids[:i], mids[i + 1:]
            for ma, mb, dc in dm(mids[i]):
                acc_term(out, (l, head + (ma, mb) + tail, r), c * dc)
        return EdgeElem(backend, self.has_l, self.has_r, out)

    def counit_mid(self, pos) -> "EdgeElem":
        backend = self.backend
        i = self._mid_index(pos)
        eps = backend.counit_mono
        out = {}
        for (l, mids, r), c in self.terms.items():
            e = eps(mids[i])
            if e.is_zero():
                continue
            acc_term(out, (l, mids[:i] + mids[i + 1:], r), c * e)
        return EdgeElem(backend, self.has_l, self.has_r, out)

    # -- finalization ------------------------------------------------------------

    def finalize(self) -> AlgElem:
        """Expand remaining edge words to normal form, giving an AlgElem."""
        backend = self.backend
        aR = backend.alphabets["R"]
        aL = backend.alphabets["L"]
        out = {}
        arity = self.arity
        for (l, mids, r), c in self.terms.items():
            lparts = _word_pbw(backend, aL, l).items() if l is not None else ((None, ONE),)
            rparts = _word_pbw(backend, aR, r).items() if r is not None else ((None, ONE),)
            for ml, cl in lparts:
                head = mids if ml is None else (ml,) + mids
                ccl = c * cl
                for mr, cr in rparts:
                    key = head if mr is None else head + (mr,)
                    acc_term(out, key, ccl * cr)
        return AlgElem(backend, arity, out)

    def __repr__(self):
        return (f"EdgeElem({self.backend.name}, arity={self.arity}, "
                f"terms={len(self.terms)}, edges={'L' if self.has_l else ''}"
                f"{'R' if self.has_r else ''})")
