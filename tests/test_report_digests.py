"""Byte-identity guards: the sha256 of a few cheap CLI reports, pinned.

A change that is meant to leave every number alone (a refactor, a cache,
a moved function) must leave these digests alone too.  A change that is
meant to move a number updates the digest here and says which field moved
and why.  The digests were taken with numpy 2.4.6 and scipy 1.17.1; other
builds may round differently, so the tests skip there.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy

from ballharm import MultiplierSequence, TheoremParams, condition2_sup, probe_operator_norm, reports
from ballharm.cli import main

BUILD = ("2.4.6", "1.17.1")
pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != BUILD,
    reason="report digests were taken with numpy 2.4.6 and scipy 1.17.1",
)

ZONAL = {"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0],
         "coeffs": [1.0, 0.5, -0.25, 0.125, -0.0625]}
FULL = {"dim": 2, "kind": "full",
        "coeffs": [[1.0], [0.5, -0.25], [0.125, 0.375], [-0.0625, 0.25]]}
FULL3 = {"dim": 3, "kind": "full",
         "coeffs": [[1.0], [0.5, -0.25, 0.75], [0.125, 0.375, -0.5, 0.25, 0.0625]]}
# a seeded degree-64 zonal file: its norm profiles batch their radii
ZONAL64 = {"dim": 3, "kind": "zonal", "pole": [0.0, 0.0, 1.0],
           "coeffs": (np.random.default_rng(64).standard_normal(65) * 0.9 ** np.arange(65.0)).tolist()}
ZONAL_MULT = {"dim": 3, "kind": "zonal", "coeffs": [1.0, 0.5, -0.25, 0.125, -0.0625]}
MULT_CHECK = ["mult-check", "--alpha", "0.5", "--beta", "0.25", "--rho-levels", "6"]
NORM = ["norm", "--p", "2", "--q", "2", "--alpha", "0.5"]

CASES = {
    "norm-zonal": (NORM + ["--input", "zonal.json"], 0,
                   "2383015adfbcf7183ee5fa0cf52c585525fbed65bb6659b734550ebb8d23bf73"),
    # p = q: the direct double-integral check runs too
    "norm-zonal64": (NORM + ["--input", "zonal64.json"], 0,
                     "5c64a259d2e9160f278dfb1984990525855d8542b460e55494026425a1f65ebd"),
    "norm-full": (NORM + ["--input", "full.json"], 0,
                  "c844e0f98ad5d9b848f2211ac77aea457fcdca13c17de22639db64255ccca606"),
    "norm-full3": (NORM + ["--input", "full3.json"], 0,
                   "6ce722b395c78fc4999cf66d7e2d288e723400132b483c4606e21b89e3697682"),
    # the ``ones`` curve takes the closed-form kernel from j = 3 on
    "mult-check-ones": (["mult-check", "--alpha", "0.5", "--beta", "0.25",
                         "--multiplier", "ones", "--rho-levels", "6"], 0,
                        "c8ce9aa81b341adf0a6816e9c65aa3ec80352a4139ad073f46e6b7197562945a"),
    # numerator and denominator growth curves differ
    "mult-check-powerlaw": (MULT_CHECK + ["--multiplier", "powerlaw:0.5"], 0,
                            "ac1d5a25176669f4fabb30b17af0b0940fde2766408503f59dedbeadbc4c9b7c"),
    # a multiplier file: the curve is keyed by the coefficient values; the
    # probe's denominator is the ``ones`` curve, so its ratios move with it
    "mult-check-file": (MULT_CHECK + ["--multiplier", "zm.json"], 0,
                        "2161b37cf6e433d95606a65d2513283e68cd78b1c2002e160dfc282889bd306e"),
    # the pointwise kernel is the closed growth kernel at integer beta
    "lemma-1": (["lemma", "--id", "1"], 0,
                "48672391370679446b39af8f4d29eb3c7f8eb4b3611bf6a6bd2e43e3d89b9db9"),
    "lemma-4": (["lemma", "--id", "4"], 0,
                "b08bdd770c738afaec22034670d698f74fb12e851a2da69b85420f9e17628b69"),
    "lemma-5": (["lemma", "--id", "5"], 0,
                "130e3379150a69362d32f30c4c2d2c7bf14e91dae35bf113d72440847324ffdb"),
    "lemma-3-fast": (["lemma", "--id", "3", "--fast"], 0,
                     "a396c322ae017c56f35a258cdebf645593b5c6416fe64cc743982826b028c86e"),
    "lemma-6-fast": (["lemma", "--id", "6", "--fast"], 0,
                     "2c956dc9d199ba7c84d5aa7f8697f31f498209e62c10cdd77da4177562086c2c"),
}


# full-kind condition (2), which mult-check does not report: (blocks, digest)
FULL_CONDITION2 = {
    2: ([[1.0], [0.5, -0.25], [0.125, 0.375], [-0.0625, 0.25]],
        "3cf509a94e02cf2fa5b7628cf5ca0a9ec69aa3733245761b94689dfa293c5bf7"),
    3: ([[1.0], [0.5, -0.25, 0.75], [0.125, 0.375, -0.5, 0.25, 0.0625]],
        "fe4e07badd76059f264f35f4ee1b8c85b5f1f397f24baf356499fbbcd1851ecd"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_pinned(name, tmp_path, monkeypatch):
    argv, code, digest = CASES[name]
    # relative paths: the input path is part of the norm report
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zonal.json").write_text(json.dumps(ZONAL))
    (tmp_path / "zonal64.json").write_text(json.dumps(ZONAL64))
    (tmp_path / "full.json").write_text(json.dumps(FULL))
    (tmp_path / "full3.json").write_text(json.dumps(FULL3))
    (tmp_path / "zm.json").write_text(json.dumps(ZONAL_MULT))
    assert main(argv + ["--out", "report.json"]) == code
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("dim", sorted(FULL_CONDITION2))
def test_full_condition2_digest_pinned(dim):
    blocks, digest = FULL_CONDITION2[dim]
    rep = condition2_sup(MultiplierSequence(dim, "full", blocks),
                         TheoremParams(p=1.0, alpha=0.5, beta=0.25, m=2.0, dim=dim),
                         j_levels=[3, 4, 5], direction_count=8)
    text = reports.dumps(rep.to_payload())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_random_polynomial_probe_ratios_pinned():
    # the probe's norms integrate short-series profiles at 96-384 radii
    params = TheoremParams(p=1.0, alpha=0.5, beta=0.5, m=2.0, dim=3)
    rep = probe_operator_norm("powerlaw:0.25", params, family="random_polynomials",
                              sizes=[2, 4], seed=11)
    assert [float(v).hex() for v in rep.norm_ratios] == [
        "0x1.0000000000000p+0", "0x1.a93fff3ed46c8p-1"]
