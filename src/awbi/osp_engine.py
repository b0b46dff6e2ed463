"""osp_q(1|2) backend: the presentation only.  Normal forms with the
parity generator P (the constants of the shared rank-one exchange in pbw),
the Casimir, the generator coproducts, and the coideal letters and
coactions for the q-Bannai-Ito family.  The letters' coproducts and the
Casimir counit are derived in pbw.Backend.

Presentation: generators A+, A-, K, K^-1, P with
    K A+ K^-1 = q^(1/2) A+,   K A- K^-1 = q^(-1/2) A-,
    A+ A- + A- A+ = (K^2 - K^-2) / (q^(1/2) - q^(-1/2)),
    {P, A+-} = 0,   [P, K] = 0,   P^2 = 1.
Monomials are normal-ordered as A-^a A+^c K^k P^p with p in {0, 1}.

The tensor product is the ordinary, ungraded one: every sign lives in P.
Right coideal alphabet: {A+K, A-K, K^2 P, Casimir}; left coideal alphabet:
{A+K^-1 P, A-K^-1 P, K^-2 P, Casimir}.

Rescaling for the lattice basis of pbw.Lattice: A+ has weight 1, one
weight unit stands for q^(1/2) - q^(-1/2) (the inverse of the exchange
constant) and the generator normaliser is lambda = q - q^-1.  Then
A+' = (q^(1/2) - q^(-1/2)) A+ satisfies
    A+' A- + A- A+' = K^2 - K^-2,
every lambda-scaled generator is integral (the empty-set value becomes
lambda * c_empty = -(q^(1/2) - q^(-1/2))), and generators are built and
multiplied over Z[v, v^-1].
"""

from __future__ import annotations

from .pbw import Alphabet, Backend, exchange, term_dict as _d
from .qcoeff import ONE, rq, vpow

# Packed factor layout: a- (10 bits) | a+ (10 bits) | k+2048 (12 bits) | p (1 bit).
_KOFF = 2048


def _pack(am, ap, k, p):
    if am < 0 or not 0 <= ap < 1024 or not -_KOFF <= k < _KOFF or p not in (0, 1):
        raise ValueError(f"exponents {(am, ap, k, p)} do not fit the packed layout")
    return (am << 23) | (ap << 13) | ((k + _KOFF) << 1) | p


def _unpack(m):
    return (m >> 23, (m >> 13) & 0x3FF, ((m >> 1) & 0xFFF) - _KOFF, m & 1)


VH = vpow(1)                                    # q^(1/2)
VHI = vpow(-1)                                  # q^(-1/2)
SM = rq((1, 1), (-1, -1))                       # q^(1/2) - q^(-1/2)
SP = rq((1, 1), (-1, 1))                        # q^(1/2) + q^(-1/2)
QM = rq((2, 1), (-2, -1))                       # q - q^-1
SINV = ONE / SM


def _mul_mono(m1, m2, den=SINV):
    """m1 * m2 in normal form, for the exchange
    A+ A- = -A- A+ + den (K^2 - K^-2)."""
    a1, c1, b1, p1 = _unpack(m1)
    a2, c2, b2, p2 = _unpack(m2)
    neg = p1 and (a2 + c2) & 1
    p = (p1 + p2) & 1
    base = vpow(b1 * (c2 - a2))
    if neg:
        base = -base
    # rewrite A+^c1 A-^a2 as A-^am K^t A+^ap, then move K^t right past
    # A+^(ap+c2)
    out = []
    for (am, t, ap), c in exchange(c1, a2, -1, 2, den, 1, -1).items():
        out.append((_pack(a1 + am, ap + c2, t + b1 + b2, p),
                    base * c * vpow(t * (ap + c2))))
    return tuple(out)


# -- the Casimir and the coideal tables ----------------------------------------

# Casimir in normal form:
#   A- A+ P - q^(1/2)/(q - q^-1) K^2 P + q^(-1/2)/(q - q^-1) K^-2 P
_CASIMIR = {
    _pack(1, 1, 0, 1): ONE,
    _pack(0, 0, 2, 1): -(VH / QM),
    _pack(0, 0, -2, 1): VHI / QM,
}

_ID = _pack(0, 0, 0, 0)
_mAm = _pack(1, 0, 0, 0)        # A-
_mAp = _pack(0, 1, 0, 0)        # A+
_mKP = _pack(0, 0, 1, 1)        # K P
_mKi = _pack(0, 0, -1, 0)       # K^-1
_mApK = _pack(0, 1, 1, 0)       # A+ K
_mAmK = _pack(1, 0, 1, 0)       # A- K
_mK2P = _pack(0, 0, 2, 1)       # K^2 P
_mKi2P = _pack(0, 0, -2, 1)     # K^-2 P
_mAp2P = _pack(0, 2, 0, 1)      # A+^2 P
_mApKiP = _pack(0, 1, -1, 1)    # A+ K^-1 P
_mAmKiP = _pack(1, 0, -1, 1)    # A- K^-1 P

_R_PBW = {
    "A+K": _d((_mApK, ONE)),
    "A-K": _d((_mAmK, ONE)),
    "K2P": _d((_mK2P, ONE)),
    "Gam": dict(_CASIMIR),
}
_L_PBW = {
    "A+KiP": _d((_mApKiP, ONE)),
    "A-KiP": _d((_mAmKiP, ONE)),
    "Ki2P": _d((_mKi2P, ONE)),
    "Gam": dict(_CASIMIR),
}

_R_TAU = {
    "A-K": ((_d((_mK2P, ONE)), "A-K"),),
    "A+K": (
        (_d((_mKi2P, ONE)), "A+K"),
        (_d((_mAp2P, VHI * QM)), "A-K"),
        (_d((_mApKiP, VHI * SM)), "K2P"),
        (_d((_mApKiP, VHI * QM)), "Gam"),
    ),
    "K2P": (
        (_d((_ID, ONE)), "K2P"),
        (_d((_mApK, -QM)), "A-K"),
    ),
    "Gam": ((_d((_ID, ONE)), "Gam"),),
}

_L_TAU = {
    "A-KiP": ((_d((_mKi2P, ONE)), "A-KiP"),),
    "A+KiP": (
        (_d((_mK2P, ONE)), "A+KiP"),
        (_d((_mAp2P, -(VH * QM))), "A-KiP"),
        (_d((_mApK, -(VH * SM))), "Ki2P"),
        (_d((_mApK, -(VH * QM))), "Gam"),
    ),
    "Ki2P": (
        (_d((_ID, ONE)), "Ki2P"),
        (_d((_mApKiP, -QM)), "A-KiP"),
    ),
    "Gam": ((_d((_ID, ONE)), "Gam"),),
}

# coproduct of the Casimir, both legs in alphabet letters
_CAS_DELTA = (
    ("Gam", "K2P", ONE),
    ("Ki2P", "Gam", ONE),
    ("A+KiP", "A-K", VHI),
    ("A-KiP", "A+K", -VH),
    ("Ki2P", "K2P", ONE / SP),
)

# coproducts of the generators in field order; K and P are group-like
_GEN_DELTA = (
    {(_mAm, _mKP): ONE, (_mKi, _mAm): ONE},
    {(_mAp, _mKP): ONE, (_mKi, _mAp): ONE},
    None,
    None,
)

BI = Backend(
    name="bi",
    field_names=("A-", "A+", "K", "P"),
    pack=_pack,
    unpack=_unpack,
    mul_mono=_mul_mono,
    gen_delta=_GEN_DELTA,
    casimir=_CASIMIR,
    alphabets={
        "R": Alphabet(("A+K", "A-K", "K2P", "Gam"), _R_PBW, _R_TAU),
        "L": Alphabet(("A+KiP", "A-KiP", "Ki2P", "Gam"), _L_PBW, _L_TAU),
    },
    casimir_delta=_CAS_DELTA,
    rescaling=((0, 1, 0, 0), SM, QM),
    relation=(ONE, SP, VH, VHI),                # the q-anticommutator
)
