"""Text format round trips and rejection cases."""

import pytest

from linhyp import hgio
from linhyp.algebra import affine_plane
from linhyp.catalog import NAMES, special
from linhyp.core import Hypergraph


def test_round_trip(tmp_path):
    h = affine_plane(3)
    path = tmp_path / "f9.hg"
    hgio.dump(h, path, comment="round trip")
    assert hgio.load(path) == h


def test_header_format():
    text = hgio.dumps(Hypergraph(4, [[0, 1, 2, 3]]))
    lines = text.splitlines()
    assert lines[0] == "p hg 4 1"
    assert lines[1] == "e 1 2 3 4"


@pytest.mark.parametrize("kind", NAMES)
def test_catalog_round_trip(kind):
    h = special(kind)
    assert hgio.loads(hgio.dumps(h)) == h


@pytest.mark.parametrize(
    "text",
    [
        "p hg 3 1\ne 1 5\n",      # id out of range
        "p hg 3 1\ne 2 1\n",      # unsorted
        "p hg 3 1\ne 1 1\n",      # repeated
        "p hg 3 2\ne 1 2\n",      # wrong edge count
        "e 1 2\np hg 3 1\n",      # edge before header
        "p hg 3 1\ne\n",          # empty edge
        "q hg 3 1\n",             # unknown record
        "p hg 3 1\np hg 3 1\ne 1 2\n",  # duplicate header
    ],
)
def test_rejections(text):
    with pytest.raises(hgio.FormatError):
        hgio.loads(text)


def test_rejection_messages_keep_their_order_and_line():
    # a line that breaks two rules reports the first of: bad id, empty,
    # out of range, not increasing
    with pytest.raises(hgio.FormatError, match="^line 3: vertex id out of range$"):
        hgio.loads("p hg 3 2\ne 1 2\ne 5 1\n")
    with pytest.raises(hgio.FormatError, match="^line 2: bad vertex id$"):
        hgio.loads("p hg 3 1\ne 9 x\n")
    with pytest.raises(hgio.FormatError, match="^line 2: ids not strictly increasing$"):
        hgio.loads("p hg 3 1\ne 3 2\n")


def test_comments_ignored():
    h = hgio.loads("c a comment\nc another\np hg 3 1\ne 1 3\n")
    assert h.edges == ((0, 2),)
    # the first token is the record, whatever whitespace ends it
    h = hgio.loads("c\tnote\nc\n  c indented\np hg 2 1\ne 1 2\n")
    assert h.edges == ((0, 1),)
    with pytest.raises(hgio.FormatError, match="unknown record 'cfoo'"):
        hgio.loads("cfoo\np hg 2 1\ne 1 2\n")
