"""Certificate re-checks raise ``CertificateError``, also under ``python -O``."""

import dataclasses
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linhyp import matching, probability
from linhyp.catalog import special
from linhyp.algebra import projective_plane
from linhyp.core import (
    CertificateError,
    Graph,
    incidence_graph,
)
from linhyp.deficiency import find_embeddings
from linhyp.matching import (
    Matching,
    hall_violator,
    max_matching_bipartite,
    max_matching_general,
    tutte_berge_certificate,
)
from linhyp.probability import claim_c3_envelope
from linhyp.solver import TransversalResult, tau

from oracles import complete_bipartite, complete_graph

SRC = str(Path(__file__).resolve().parent.parent / "src")
deficiency_module = importlib.import_module("linhyp.deficiency")


def test_tau_witness_failing_its_check_raises(monkeypatch):
    monkeypatch.setattr(TransversalResult, "check", lambda self, h: False)
    with pytest.raises(CertificateError):
        tau(special("H10"))


def test_blossom_matching_failing_its_check_raises(monkeypatch):
    monkeypatch.setattr(Matching, "check", lambda self, g: False)
    with pytest.raises(CertificateError):
        max_matching_general(complete_graph(4))


def test_bipartite_matching_failing_its_check_raises(monkeypatch):
    monkeypatch.setattr(Matching, "check", lambda self, g: False)
    with pytest.raises(CertificateError):
        max_matching_bipartite(complete_bipartite(2, 3))


def test_hall_violator_from_a_non_maximum_matching_raises(monkeypatch):
    # an empty matching leaves vertex 0 unmatched although it can be matched
    monkeypatch.setattr(matching, "max_matching_general", lambda g: Matching(()))
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


@pytest.fixture
def fresh_plans():
    deficiency_module._plan.cache_clear()
    yield
    deficiency_module._plan.cache_clear()


def test_automorphisms_that_are_no_group_raise(monkeypatch, fresh_plans):
    # Pass on only the first three mappings the search on the pattern finds:
    # the identity, the swap of the edges of H10's last two steps and the
    # swap of the third step's edge with the fourth.  They fix the first two
    # edges, so they lie in a group of order 6, and are no group themselves.
    search = deficiency_module._search

    def truncated(index, plan, leaf):
        seen = []

        def first_three(values, used, placed):
            seen.append(used)
            if len(seen) <= 3:
                leaf(values, used, placed)

        search(index, plan, first_three)

    monkeypatch.setattr(deficiency_module, "_search", truncated)
    with pytest.raises(CertificateError, match="not a group"):
        deficiency_module._plan("H10")


def test_automorphism_found_twice_raises(monkeypatch, fresh_plans):
    # every mapping of H10 onto itself, the identity twice: a group as a set
    search = deficiency_module._search

    def repeated(index, plan, leaf):
        def identity_twice(values, used, placed):
            leaf(values, used, placed)
            if values[plan.n:] == sorted(values[plan.n:]):
                leaf(values, used, placed)

        search(index, plan, identity_twice)

    monkeypatch.setattr(deficiency_module, "_search", repeated)
    with pytest.raises(CertificateError, match="not a group"):
        deficiency_module._plan("H10")


def test_two_mappings_onto_one_copy_raise(monkeypatch):
    # without its symmetry-breaking conditions, H10 is reached 120 times
    plan = deficiency_module._plan("H10")
    bare = dataclasses.replace(plan, after=((),) * len(plan.steps))
    monkeypatch.setattr(deficiency_module, "_plan", lambda kind: bare)
    with pytest.raises(CertificateError, match="two mappings"):
        find_embeddings(special("H10"), "H10")


def _run_under_O(body: str) -> str:
    script = "assert False, 'asserts must be stripped here'\n" + body
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return out.stdout.strip()


def test_checks_survive_python_O():
    script = (
        "from linhyp import tau, special, CertificateError\n"
        "from linhyp.solver import TransversalResult\n"
        "TransversalResult.check = lambda self, h: False\n"
        "try:\n"
        "    tau(special('H10'))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    assert _run_under_O(script) == "raised"


def test_bipartite_check_survives_python_O():
    script = (
        "from linhyp import CertificateError, max_matching_bipartite\n"
        "from linhyp.core import Graph\n"
        "from linhyp.matching import Matching\n"
        "Matching.check = lambda self, g: False\n"
        "try:\n"
        "    max_matching_bipartite(Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],\n"
        "                                 bipartition=(range(2), range(2, 5))))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    assert _run_under_O(script) == "raised"


def test_blossom_check_survives_python_O():
    script = (
        "from linhyp import CertificateError, max_matching_general\n"
        "from linhyp.core import Graph\n"
        "from linhyp.matching import Matching\n"
        "Matching.check = lambda self, g: False\n"
        "try:\n"
        "    max_matching_general(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    assert _run_under_O(script) == "raised"


def test_matching_check_rejects_under_python_O():
    script = (
        "from linhyp.core import Graph\n"
        "from linhyp.matching import Matching\n"
        "g = Graph(4, [(0, 1), (1, 2), (2, 3)])\n"
        "cases = [((0, 2),), ((0, 1), (1, 2)), ((3, 4),), ((3, 2), (1, 0))]\n"
        "print([Matching(p).check(g) for p in cases])\n"
    )
    assert _run_under_O(script) == "[False, False, False, True]"


def test_matching_check_rejects_on_an_incidence_graph_under_python_O():
    # on PG(2,3), point 0 lies on line nodes 13 and 14 but not on 22, and
    # vertex -1 would wrap onto the last line node without the range check
    h = projective_plane(3)
    g = incidence_graph(h)
    assert g.adj[0][:2] == (13, 14) and 22 not in g.adj[0]
    assert h.edges[-1][0] in g.adj[-1]
    script = (
        "from linhyp import incidence_graph, projective_plane\n"
        "from linhyp.matching import Matching\n"
        "h = projective_plane(3)\n"
        "g = incidence_graph(h)\n"
        "last = h.edges[-1][0]\n"
        "cases = [((0, 13),), ((0, 22),), ((0, 13), (0, 14)), ((0, 13), (h.edges[0][1], 13)),\n"
        "         ((-1, last),), ((g.n, 0),), ((0, g.n),)]\n"
        "print([Matching(p).check(g) for p in cases])\n"
    )
    assert _run_under_O(script) == "[True, False, False, False, False, False, False]"


def test_embedding_checks_survive_python_O():
    script = (
        "import dataclasses, importlib\n"
        "from linhyp import CertificateError, find_embeddings, special\n"
        "module = importlib.import_module('linhyp.deficiency')\n"
        "plan_of = module._plan\n"
        "plan = plan_of('H10')\n"
        "module._plan = lambda kind: dataclasses.replace(plan, after=((),) * 5)\n"
        "try:\n"
        "    find_embeddings(special('H10'), 'H10')\n"
        "except CertificateError as e:\n"
        "    print(str(e)[:12])\n"
        "plan_of.cache_clear()\n"
        "search = module._search\n"
        "def truncated(index, plan, leaf):\n"
        "    seen = []\n"
        "    def first_three(values, used, placed):\n"
        "        seen.append(used)\n"
        "        if len(seen) <= 3:\n"
        "            leaf(values, used, placed)\n"
        "    search(index, plan, first_three)\n"
        "module._search = truncated\n"
        "try:\n"
        "    plan_of('H10')\n"
        "except CertificateError as e:\n"
        "    print(str(e)[-11:])\n"
    )
    assert _run_under_O(script) == "two mappings\nnot a group"
