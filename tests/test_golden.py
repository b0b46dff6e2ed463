"""Golden hashes of canonical JSON dumps.

The element schema promises a deterministic lexicographic term order, so
the canonical dump of a fixed generator is reproducible byte for byte;
these hashes pin the wire format against accidental drift.  If a hash
moves on purpose (schema change), recompute and update it here.
"""

import hashlib
import itertools
import json
import re

import pytest

from awbi.cli import main
from awbi.extension import IndexSet, build, generator, make_plan
from awbi.osp_engine import BI
from awbi.relations import check_comm, check_star, subsets
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


# CLI output bytes: `build --set 1,3-4 --n 5 --full --output json` under two
# processes, and the `scan --n 4 --output json` stream with its elapsed_s
# value blanked (the only field that depends on the clock).
CLI_OUTPUT = {
    ("aw", "build", "right"):
        "f90333d4eeed7373a315d370658b5bd5297856cbfb76a94b809d4760b9a09c2e",
    ("aw", "build", "derived"):
        "ebba62cf85a262757d66ec9e0fb5e3e1c07619d5f1a6827dae062fd298dca32d",
    ("aw", "scan", None):
        "82758ffcaec1d2e2a402250433a681986f5fc89401b2bd3c134ac0b6a6b261c8",
    ("bi", "build", "right"):
        "dffa7fb5989603d570df3e1ce7ca7fe48109202b1f83a8c1a9c3fe24b776dcce",
    ("bi", "build", "derived"):
        "cad8b48c027165739b65e2b667f3398f6a2f9d66a350f4ad844c1819285eef39",
    ("bi", "scan", None):
        "4943a62bf6764f9934b8f94c0cf46d7ae747e2ba02cac108216387312a3d468c",
}


def _cli_digest(capsys, backend, command, process):
    if command == "build":
        argv = ["build", "--backend", backend, "--set", "1,3-4", "--n", "5",
                "--full", "--output", "json", "--process", process]
    else:
        argv = ["scan", "--backend", backend, "--n", "4", "--output", "json"]
    main(argv)
    out = re.sub(r'"elapsed_s": [-+.e0-9]+', '"elapsed_s": 0',
                 capsys.readouterr().out)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("backend, command, process", sorted(CLI_OUTPUT, key=str))
def test_cli_output_digests(capsys, backend, command, process):
    expected = CLI_OUTPUT[(backend, command, process)]
    assert _cli_digest(capsys, backend, command, process) == expected


# every nonempty subset of [1;6] built under every process (right, left,
# derived and each mixed:J) on both backends, 762 builds in one digest
ALL_ORDERS_N6 = "a19fc69de21c3434bf74a07f565f63ab99140692e26b567b321dcdcc8ab21009"


def _all_orders_digest(n):
    h = hashlib.sha256()
    for backend in (AW, BI):
        for r in range(1, n + 1):
            for elems in itertools.combinations(range(1, n + 1), r):
                A = IndexSet(n, elems)
                processes = ["right", "left", "derived"]
                processes += [f"mixed:{j}" for j in range(1, r + 1)]
                for process in processes:
                    g = build(A, backend, make_plan(A, process))
                    h.update(json.dumps([backend.name, elems, process, g.to_json()],
                                        sort_keys=True).encode())
    return h.hexdigest()


def test_all_orders_build_digest():
    assert _all_orders_digest(6) == ALL_ORDERS_N6


# every nonempty subset of [1;8] built by the right process, on aw and then
# on bi, in itertools.combinations order: the arities 7 and 8 that the
# all-orders digest above does not reach
RIGHT_N8 = "b6e96594bf847d5b92613cc9db75e1687bca2befc78ed9ca903487b2fa1fefed"


def test_right_process_build_digest_n8():
    h = hashlib.sha256()
    for backend in (AW, BI):
        for r in range(1, 9):
            for elems in itertools.combinations(range(1, 9), r):
                g = build(IndexSet(8, elems), backend)
                h.update(json.dumps([backend.name, list(elems), g.to_json()],
                                    sort_keys=True).encode())
    assert h.hexdigest() == RIGHT_N8


# the published residual of every pair at n=4 that fails the standard
# relation or commutation (200 of 1024 checks), on aw and then on bi, in
# pair order: coefficients that the scan digests, which carry only term
# counts, do not pin
FAILING_RESIDUALS_N4 = "c739b869394bad73bd8ebead0ab2bc19aa797299ef6095dcd271e7a872ef1eff"


def test_failing_residuals_digest_n4():
    h, failing = hashlib.sha256(), 0
    for backend in (AW, BI):
        for A in subsets(4):
            for B in subsets(4):
                for check, relation in ((check_star, "star"), (check_comm, "comm")):
                    rep = check(A, B, 4, backend)
                    if not getattr(rep, "holds_" + relation):
                        failing += 1
                        residual = getattr(rep, "residual_" + relation)
                        h.update(json.dumps([backend.name, list(A), list(B), relation,
                                             residual.to_json()], sort_keys=True).encode())
    assert failing == 200
    assert h.hexdigest() == FAILING_RESIDUALS_N4
