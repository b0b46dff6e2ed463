"""Every demo script runs standalone and prints exactly its pinned output."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
DIGESTS = {
    "01_rank_one_relations.py":
        "67d1080caa679d56f63029539b1de6b5bf89d8927a78173dc066edc20fe00f95",
    "02_extension_processes.py":
        "a95ab365aefbb2f5c356606e61f83ced0d6f27a5d15f65b3c6495a6653856d64",
    "03_coactions_and_cotensor.py":
        "3ceab1e0667100e470fa507c7c3b5308657b44606e7f485674b604fb600887e6",
    "04_pair_scan.py":
        "034688999dccf1fed18a2fc4f9f7f8da4091cfdacda01dd6d63739347c53a0df",
    "05_bannai_ito.py":
        "88e07a39c39b812b7bbd86b51a40a8dea1ffadec751a95cf9372474f0ed6c8cd",
    "06_numeric_oracle.py":
        "c2546c2572e6b7d6b23cbe43736e5710af328ff2741671cdf40f2fd7759059be",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
