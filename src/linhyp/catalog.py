"""The fifteen special hypergraphs, shipped as embedded .hg resources.

Entries are validated structurally on first load; the full property suite
lives in :mod:`linhyp.verify`.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from . import hgio
from .core import Hypergraph

NAMES = (
    "H4",
    "H10",
    "H11",
    "H14_1",
    "H14_2",
    "H14_3",
    "H14_4",
    "H14_5",
    "H14_6",
    "H21_1",
    "H21_2",
    "H21_3",
    "H21_4",
    "H21_5",
    "H21_6",
)

#: order of each catalog entry (n, m, tau)
SHAPES = {
    "H4": (4, 1, 1),
    "H10": (10, 5, 3),
    "H11": (11, 5, 3),
    **{f"H14_{i}": (14, 7, 4) for i in range(1, 7)},
    **{f"H21_{i}": (21, 11, 6) for i in range(1, 7)},
}

#: deficiency weight of an isolated copy, by vertex-count class
DEFIC_WEIGHT = {4: 8, 10: 10, 11: 4, 14: 5, 21: 1}


class CatalogError(KeyError):
    """Unknown catalog name."""


def order_class(name: str) -> int:
    """Vertex count class of a catalog entry (4, 10, 11, 14, or 21)."""
    return SHAPES[name][0]


@lru_cache(maxsize=None)
def special(name: str) -> Hypergraph:
    """Return the named special hypergraph from the embedded catalog."""
    if name not in NAMES:
        raise CatalogError(
            f"unknown special hypergraph {name!r}; valid names: {', '.join(NAMES)}"
        )
    data = resources.files("linhyp").joinpath("data", f"{name}.hg").read_text("ascii")
    h = hgio.loads(data)
    n, m, _tau = SHAPES[name]
    if h.n != n or h.m != m:
        raise AssertionError(f"catalog entry {name} fails shape check")
    return h
