"""Golden hashes of canonical JSON dumps.

The element schema promises a deterministic lexicographic term order, so
the canonical dump of a fixed generator is reproducible byte for byte;
these hashes pin the wire format against accidental drift.  If a hash
moves on purpose (schema change), recompute and update it here.
"""

import hashlib
import itertools
import json

from awbi.extension import generator
from awbi.osp_engine import BI
from awbi.uq_engine import AW

GOLDEN = {
    ("aw", (1, 2), 2):
        "fdedc6d910b538312bc94353f216a9d24dbe44f9dc84d363afdf7b566c449401",
    ("aw", (1, 3), 3):
        "fa32436243cb5a8927e607d61fb6066f106eca4e52d20f973bc229f9c8fd0f3d",
    ("bi", (1, 2), 2):
        "c4cfcefd980d057ede01035d559ca4e257b540097767669222dfd52303d688c5",
}

# single-factor straightening and monomial coproducts on a grid of
# exponents (E/F/A+- in 0..3, K in -1..1, P in 0..1) plus the Casimir counit
STRAIGHTENING = {
    "aw": (((0, 1, 2, 3), (-1, 0, 1), (0, 1, 2, 3)),
           "2e85fd69b7c12c0da1aea7c29ca21cbee5dc7c1981cc30ae381f95364b5fe101"),
    "bi": (((0, 1, 2, 3), (0, 1, 2, 3), (-1, 0, 1), (0, 1)),
           "0c5da0b01489ad3a6cdb6182b65190359e9c13d5fc3a94a3921a9b0dc64d8740"),
}


def _digest(backend, elems, n):
    g = generator(backend, n, elems)
    blob = json.dumps(g.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_golden_json_digests():
    backends = {"aw": AW, "bi": BI}
    for (name, elems, n), expected in GOLDEN.items():
        assert _digest(backends[name], elems, n) == expected, (name, elems)


def _straightening_digest(backend, ranges):
    unpack = backend.unpack
    monos = [backend.pack(*e) for e in itertools.product(*ranges)]
    blob = {
        "mul": [sorted((list(unpack(m)), c.to_json())
                       for m, c in backend.mul_mono(m1, m2))
                for m1 in monos for m2 in monos],
        "delta": [sorted((list(unpack(a)), list(unpack(b)), c.to_json())
                         for a, b, c in backend.delta_mono(m))
                  for m in monos],
        "casimir_counit": backend.casimir_counit.to_json(),
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def test_straightening_digests():
    for backend in (AW, BI):
        ranges, expected = STRAIGHTENING[backend.name]
        assert _straightening_digest(backend, ranges) == expected, backend.name
