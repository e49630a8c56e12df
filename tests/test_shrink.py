"""Delta debugging of `.afo` documents (`shrink`), on a known answer and on
a seeded bug."""

import random

from afo.abstraction import _ScanTable

from generators import hub_pairs_document, multi_hub_instance
from shrink import ddmin, shrink, without_node
from test_end_to_end import afo_text, sharpen_mismatches


def test_ddmin_keeps_exactly_what_the_failure_needs():
    calls = []

    def fails(sub):
        calls.append(sub)
        return {1, 7} <= set(sub)

    assert ddmin(range(8), fails) == [1, 7]
    assert len(calls) == len(set(map(tuple, calls)))
    assert ddmin(range(8), lambda sub: 3 in sub) == [3]


MINIMAL = """\
node p
node top
cover p top
map ep p
arglet x ep
arglet y ep
attack x.ep y.ep
attack y.ep x.ep
"""


def _lines(text):
    return text.splitlines()


def _text(lines):
    return "".join(line + "\n" for line in lines)


def _nodes(text):
    return [line.split()[1] for line in _lines(text) if line.startswith("node ")]


def _is_minimal(text, fails):
    """No one line, and no one node with its lines, can go."""
    lines = _lines(text)
    return not any(fails(_text(lines[:i] + lines[i + 1 :])) for i in range(len(lines))) and not any(
        fails(_text(without_node(lines, node))) for node in _nodes(text)
    )


def test_a_seeded_bug_shrinks_to_its_minimal_document(monkeypatch, capsys, tmp_path):
    """With compatibility switched off in the scan, a 2-cycle of arglets on
    one expression merges, which `oracle_sharpen` refuses.  From a document
    of 21 lines with a pair, a loner and such a clash, delta debugging keeps
    the clash and its expression, and of the five-node lattice the node p
    the expression sits at and the top, in M, joined to p once the hub
    between them goes: no line of the lattice can go alone, but whole
    nodes can."""
    text = hub_pairs_document([("a", "b")], ["c"])
    text += "arglet x ep\narglet y ep\nattack x.ep y.ep\nattack y.ep x.ep\n"
    assert len(text.splitlines()) == 21
    assert not sharpen_mismatches(text, capsys, tmp_path)
    monkeypatch.setattr(_ScanTable, "compatible", lambda self, g: True)
    fails = lambda t: sharpen_mismatches(t, capsys, tmp_path)  # noqa: E731
    assert fails(text)
    assert shrink(text, fails) == MINIMAL
    assert _is_minimal(MINIMAL, fails)


MULTI_HUB = """\
node bot
node top
node x3
node x4
node x7
cover bot x3
cover bot x4
cover bot x7
cover x3 top
cover x4 top
cover x7 top
map e_x3 x3
map e_x4 x4
map e_x7 x7
arglet a0 e_x3
arglet a1 e_x4
arglet a2 e_x7
arglet a3 e_x4
attack a0.e_x3 a2.e_x7
attack a1.e_x4 a3.e_x4
attack a2.e_x7 a1.e_x4
attack a3.e_x4 a0.e_x3
"""


def test_a_multi_hub_lattice_keeps_only_the_nodes_the_failure_needs(monkeypatch, capsys, tmp_path):
    """The same seeded bug on the multi-hub documents of the end-to-end
    test (seed 1701): the first one it breaks has a lattice of 14 nodes
    over three hubs.  Line by line, no node can go, as each is the only
    link of some other node to the top or the bottom; node by node, with
    each node's children joined to its parents, every node but the three
    atoms the four-cycle's arguments sit at goes, with bottom and top."""
    monkeypatch.setattr(_ScanTable, "compatible", lambda self, g: True)
    fails = lambda t: sharpen_mismatches(t, capsys, tmp_path)  # noqa: E731
    rng = random.Random(1701)
    text = next(t for t in (afo_text(*multi_hub_instance(rng, outsiders=rng.randint(0, 1))) for _ in range(30)) if fails(t))
    assert len(_nodes(text)) == 14
    assert shrink(text, fails) == MULTI_HUB
    assert _is_minimal(MULTI_HUB, fails)


def test_a_dropped_node_leaves_its_order_behind():
    """The children of a dropped node are joined to its parents, unless
    another path already leads from one to the other."""
    diamond = ["node b", "node l", "node r", "node t", "cover b l", "cover b r", "cover l t", "cover r t", "map e l"]
    assert without_node(diamond, "l") == ["node b", "node r", "node t", "cover b r", "cover r t"]
    chain = ["node b", "node m", "node t", "general m", "cover b m", "cover m t", "arglet m e"]
    assert without_node(chain, "m") == ["node b", "node t", "cover b t", "arglet m e"]
