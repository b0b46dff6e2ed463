"""U_q(sl2) backend: the presentation only.  Straightening of PBW
monomials (the constants of the shared rank-one exchange in pbw), the
generator coproducts, the Casimir element, and the letters and coactions
of the coideal subalgebras generated by {EK^-1, F, K^-1, Casimir} (right)
and {E, FK, K, Casimir} (left).  The letters' coproducts and the Casimir
counit are derived in pbw.Backend.

Presentation: generators E, F, K, K^-1 with
    K K^-1 = 1,   K E = q^2 E K,   K F = q^-2 F K,
    E F - F E = (K - K^-1) / (q - q^-1).
Monomials are normal-ordered as F^f K^k E^e.

Rescaling for the lattice basis of pbw.Lattice: F and E have weight 1, one
weight unit stands for q - q^-1 (the inverse of the exchange constant) and
the generator normaliser is 1, so E' = (q - q^-1) E and F' = (q - q^-1) F
satisfy
    E' F' = F' E' + (q - q^-1)(K - K^-1),
and generators are built and multiplied over Z[v, v^-1].
"""

from __future__ import annotations

from .pbw import Alphabet, Backend, exchange, term_dict as _d
from .qcoeff import ONE, rq, vpow

# Packed factor layout: f (10 bits) | k+2048 (12 bits) | e (10 bits).
_KOFF = 2048


def _pack(f, k, e):
    if f < 0 or not 0 <= e < 1024 or not -_KOFF <= k < _KOFF:
        raise ValueError(f"exponents {(f, k, e)} do not fit the packed layout")
    return (f << 22) | ((k + _KOFF) << 10) | e


def _unpack(m):
    return (m >> 22, ((m >> 10) & 0xFFF) - _KOFF, m & 0x3FF)


# frequently used scalars, all in v = q^(1/2)
Q1 = vpow(2)                                   # q
QI = vpow(-2)                                  # q^-1
QM = rq((2, 1), (-2, -1))                      # q - q^-1
QP = rq((2, 1), (-2, 1))                       # q + q^-1
QM2 = QM * QM                                  # (q - q^-1)^2
DINV = ONE / QM                                # 1 / (q - q^-1)


def _mul_mono(m1, m2, den=DINV):
    """m1 * m2 in normal form, for the exchange E F = F E + den (K - K^-1)."""
    f1, k1, e1 = _unpack(m1)
    f2, k2, e2 = _unpack(m2)
    # move K^k1 right past E^e1 then F^f2, rewrite E^e1 F^f2, then move
    # each E^e past K^(k1+k2)
    base = vpow(4 * k1 * e1 - 4 * k1 * f2)
    k12 = k1 + k2
    out = []
    for (a, b, e), c in exchange(e1, f2, 1, 1, den, 4, -4).items():
        out.append((_pack(f1 + a, b + k12, e + e2),
                    base * c * vpow(-4 * e * k12)))
    return tuple(out)


# -- the Casimir and the coideal tables ---------------------------------------

# Casimir in normal form: (q-q^-1)^2 F E + q K + q^-1 K^-1
_CASIMIR = {
    _pack(1, 0, 1): QM2,
    _pack(0, 1, 0): Q1,
    _pack(0, -1, 0): QI,
}

_ID = _pack(0, 0, 0)
_mE = _pack(0, 0, 1)
_mF = _pack(1, 0, 0)
_mK = _pack(0, 1, 0)
_mKi = _pack(0, -1, 0)
_mFK = _pack(1, 1, 0)
_mF2K = _pack(2, 1, 0)
_mKiE = _pack(0, -1, 1)

_R_PBW = {
    "EKi": _d((_mKiE, vpow(4))),            # E K^-1 = q^2 K^-1 E
    "F": _d((_mF, ONE)),
    "Ki": _d((_mKi, ONE)),
    "Lam": dict(_CASIMIR),
}
_L_PBW = {
    "E": _d((_mE, ONE)),
    "FK": _d((_mFK, ONE)),
    "K": _d((_mK, ONE)),
    "Lam": dict(_CASIMIR),
}

# right coaction on {EK^-1, F, K^-1, Casimir}
_R_TAU = {
    "EKi": ((_d((_mKi, ONE)), "EKi"),),
    "F": (
        (_d((_mK, ONE)), "F"),
        (_d((_mF2K, -(vpow(-6) * QM2))), "EKi"),
        (_d((_mFK, QI * QP)), "Ki"),
        (_d((_mFK, -QI)), "Lam"),
    ),
    "Ki": (
        (_d((_ID, ONE)), "Ki"),
        (_d((_mF, -(QI * QM2))), "EKi"),
    ),
    "Lam": ((_d((_ID, ONE)), "Lam"),),
}

# left coaction on {E, FK, K, Casimir}
_L_TAU = {
    "E": ((_d((_mK, ONE)), "E"),),
    "FK": (
        (_d((_mKi, ONE)), "FK"),
        (_d((_mF2K, -(QI * QM2))), "E"),
        (_d((_mF, Q1 * QP)), "K"),
        (_d((_mF, -Q1)), "Lam"),
    ),
    "K": (
        (_d((_ID, ONE)), "K"),
        (_d((_mFK, -(QI * QM2))), "E"),
    ),
    "Lam": ((_d((_ID, ONE)), "Lam"),),
}

# coproduct of the Casimir with both legs in alphabet letters
_CAS_DELTA = (
    ("Lam", "Ki", ONE),
    ("K", "Lam", ONE),
    ("K", "Ki", -QP),
    ("E", "F", QM2),
    ("FK", "EKi", vpow(-4) * QM2),
)

# coproducts of the generators in field order; K is group-like
_GEN_DELTA = (
    {(_mF, _mKi): ONE, (_ID, _mF): ONE},
    None,
    {(_mE, _ID): ONE, (_mK, _mE): ONE},
)

AW = Backend(
    name="aw",
    field_names=("F", "K", "E"),
    pack=_pack,
    unpack=_unpack,
    mul_mono=_mul_mono,
    gen_delta=_GEN_DELTA,
    casimir=_CASIMIR,
    alphabets={
        "R": Alphabet(("EKi", "F", "Ki", "Lam"), _R_PBW, _R_TAU),
        "L": Alphabet(("E", "FK", "K", "Lam"), _L_PBW, _L_TAU),
    },
    casimir_delta=_CAS_DELTA,
    rescaling=((1, 0, 1), QM, ONE),
    relation=(-(QM * QP), QM, Q1, -QI),        # the q-commutator, w = q^-2 - q^2
)
