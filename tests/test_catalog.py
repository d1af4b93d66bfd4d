"""Catalog loading and shape contracts."""

import pytest

from linhyp.catalog import NAMES, SHAPES, CatalogError, special
from linhyp.core import is_k_uniform, is_linear

from oracles import all_specials


def test_names_complete():
    assert len(NAMES) == 15
    assert NAMES[0] == "H4"
    assert sum(1 for n in NAMES if n.startswith("H14")) == 6
    assert sum(1 for n in NAMES if n.startswith("H21")) == 6


@pytest.mark.parametrize("kind", NAMES)
def test_shapes(kind):
    h = special(kind)
    n, m, _tau = SHAPES[kind]
    assert (h.n, h.m) == (n, m)
    assert is_k_uniform(h, 4)
    assert is_linear(h)
    assert h.max_degree() <= 3


def test_unknown_name():
    with pytest.raises(CatalogError):
        special("H15")


def test_all_specials():
    entries = all_specials()
    assert set(entries) == set(NAMES)


def test_loads_are_cached():
    assert special("H10") is special("H10")


def test_h21_2_apex_structure():
    # five pairwise disjoint 4-edges, one extra apex vertex, and six linking
    # edges with the pair-covering pattern pin this member down exactly
    from linhyp.core import Hypergraph, hypergraph_isomorphic

    f = [[4 * i + t for t in range(4)] for i in range(5)]
    edges = f + [
        [0, 4, 12, 16],
        [1, 5, 8, 16],
        [2, 6, 8, 12],
        [20, 9, 13, 17],
        [20, 10, 14, 18],
        [20, 11, 15, 19],
    ]
    assert hypergraph_isomorphic(Hypergraph(21, edges), special("H21_2"))


def test_h21_6_block_structure():
    # removing the 11-vertex block leaves the 2-regular 10-vertex member
    # with one edge gone
    from linhyp.core import delete_vertices
    from linhyp.deficiency import find_embeddings

    h = special("H21_6")
    copies = find_embeddings(h, "H11")
    assert copies
    rest = delete_vertices(h, copies[0].vertex_map)
    assert (rest.n, rest.m) == (10, 4)
    assert sorted(rest.degrees()) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
