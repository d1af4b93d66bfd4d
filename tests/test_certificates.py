"""Certificate re-checks raise ``CertificateError``, also under ``python -O``."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linhyp import matching, probability
from linhyp.catalog import special
from linhyp.core import CertificateError, Graph, complete_graph
from linhyp.matching import (
    Matching,
    hall_violator,
    max_matching_general,
    tutte_berge_certificate,
)
from linhyp.probability import claim_c3_envelope
from linhyp.solver import TransversalResult, tau

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_tau_witness_failing_its_check_raises(monkeypatch):
    monkeypatch.setattr(TransversalResult, "check", lambda self, h: False)
    with pytest.raises(CertificateError):
        tau(special("H10"))


def test_blossom_matching_failing_its_check_raises(monkeypatch):
    monkeypatch.setattr(Matching, "check", lambda self, g: False)
    with pytest.raises(CertificateError):
        max_matching_general(complete_graph(4))


def test_hall_violator_from_a_non_maximum_matching_raises(monkeypatch):
    # an empty matching leaves vertex 0 unmatched although it can be matched
    monkeypatch.setattr(matching, "max_matching_bipartite", lambda g: Matching(()))
    g = Graph(2, [(0, 1)], bipartition=([0], [1]))
    with pytest.raises(CertificateError):
        hall_violator(g)


def test_tutte_berge_without_an_attaining_set_raises(monkeypatch):
    # every S gives K4 a Tutte-Berge value of at least 2, so size 1 is never attained
    monkeypatch.setattr(matching, "max_matching_general", lambda g: Matching(((0, 1),)))
    with pytest.raises(CertificateError):
        tutte_berge_certificate(complete_graph(4))


def test_envelope_maximum_not_below_ln5_raises(monkeypatch):
    monkeypatch.setattr(probability, "_golden_section_max", lambda f, a, b: (2.0, math.log(5)))
    with pytest.raises(CertificateError):
        claim_c3_envelope()


def test_checks_survive_python_O():
    script = (
        "from linhyp import tau, special, CertificateError\n"
        "from linhyp.solver import TransversalResult\n"
        "assert False, 'asserts must be stripped here'\n"
        "TransversalResult.check = lambda self, h: False\n"
        "try:\n"
        "    tau(special('H10'))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "raised"
