"""Delta debugging of `.afo` documents (`shrink`), on a known answer and on
a seeded bug."""

from afo.abstraction import _ScanTable

from generators import hub_pairs_document
from shrink import ddmin, shrink
from test_end_to_end import sharpen_mismatches


def test_ddmin_keeps_exactly_what_the_failure_needs():
    calls = []

    def fails(sub):
        calls.append(sub)
        return {1, 7} <= set(sub)

    assert ddmin(range(8), fails) == [1, 7]
    assert len(calls) == len(set(map(tuple, calls)))
    assert ddmin(range(8), lambda sub: 3 in sub) == [3]


MINIMAL = """\
node bot
node p
node q
node hub
node top
cover bot p
cover bot q
cover p hub
cover q hub
cover hub top
map ep p
arglet x ep
arglet y ep
attack x.ep y.ep
attack y.ep x.ep
"""


def test_a_seeded_bug_shrinks_to_its_minimal_document(monkeypatch, capsys, tmp_path):
    """With compatibility switched off in the scan, a 2-cycle of arglets on
    one expression merges, which `oracle_sharpen` refuses.  From a document
    of 21 lines with a pair, a loner and such a clash, delta debugging keeps
    the clash, its expression and the lattice.  The lattice stays whole:
    without any one of its lines the diagram is no lattice, or names an
    unknown node, so the document is rejected."""
    text = hub_pairs_document([("a", "b")], ["c"])
    text += "arglet x ep\narglet y ep\nattack x.ep y.ep\nattack y.ep x.ep\n"
    assert len(text.splitlines()) == 21
    assert not sharpen_mismatches(text, capsys, tmp_path)
    monkeypatch.setattr(_ScanTable, "compatible", lambda self, g: True)
    assert sharpen_mismatches(text, capsys, tmp_path)
    assert shrink(text, lambda t: sharpen_mismatches(t, capsys, tmp_path)) == MINIMAL
    lines = MINIMAL.splitlines()
    for i in range(len(lines)):
        assert not sharpen_mismatches("".join(line + "\n" for line in lines[:i] + lines[i + 1 :]), capsys, tmp_path)
