import random

import pytest

from afo import AfoError, NonUniqueJoin
from afo.errors import AfoSyntaxError, DuplicateDeclaration, UnknownReference
from afo.format import AfoDocument, build_model, parse_afo, serialize_afo

from generators import mapped_framework, multi_hub_instance, random_lattice, random_map

MINIMAL = """\
# smallest useful document
node only
map claim only
arglet x claim
"""


def test_parse_minimal():
    doc, warnings = parse_afo(MINIMAL)
    assert warnings == []
    assert doc.nodes == ("only",)
    assert doc.covers == ()
    assert doc.assignments == (("claim", "only"),)
    assert doc.arglets == (("x", "claim"),)
    assert doc.attacks == ()


def test_parse_is_order_independent():
    rng = random.Random(12)
    text = """\
node Bot
node L
node R
node Top
cover Bot L
cover Bot R
cover L Top
cover R Top
general Top
map el L
map er R
arglet a el
arglet b er
attack a.el b.er
"""
    reference, _ = parse_afo(text)
    lines = [l for l in text.splitlines() if l.strip()]
    for _ in range(5):
        rng.shuffle(lines)
        shuffled, _ = parse_afo("\n".join(lines))
        assert shuffled == reference


def test_comments_and_blank_lines_ignored():
    doc, _ = parse_afo("\n\n# hello\nnode only   # trailing\nmap claim only\narglet x claim\n")
    assert doc.nodes == ("only",)


def test_expr_directive_is_optional_but_must_be_mapped():
    doc, _ = parse_afo("node n\nexpr claim\nmap claim n\narglet x claim\n")
    assert doc.assignments == (("claim", "n"),)
    with pytest.raises(UnknownReference) as err:
        parse_afo("node n\nexpr claim\nmap other n\narglet x other\n")
    assert err.value.line == 2
    assert "never mapped" in str(err.value)


def test_unknown_directive_and_arity():
    with pytest.raises(AfoSyntaxError) as err:
        parse_afo("node a\nfrobnicate a b\n")
    assert err.value.line == 2
    with pytest.raises(AfoSyntaxError) as err:
        parse_afo("node\n")
    assert err.value.line == 1
    with pytest.raises(AfoSyntaxError):
        parse_afo("map claim\n")
    with pytest.raises(AfoSyntaxError):
        parse_afo("cover a b c\n")


def test_identifiers_may_not_contain_dots():
    with pytest.raises(AfoSyntaxError):
        parse_afo("node a.b\n")
    with pytest.raises(AfoSyntaxError):
        parse_afo("node n\nmap cl.aim n\narglet x cl.aim\n")


def test_empty_document_rejected():
    with pytest.raises(AfoSyntaxError) as err:
        parse_afo("")
    assert err.value.line == 1
    assert "arglet" in str(err.value)
    with pytest.raises(AfoSyntaxError):
        parse_afo("node only\nmap claim only\n")  # lattice but no framework


def test_duplicates_rejected():
    cases = [
        "node a\nnode a\n",
        "node a\nnode b\ncover a b\ncover a b\n",
        "node a\ngeneral a\ngeneral a\n",
        "node a\nexpr e\nexpr e\nmap e a\narglet x e\n",
        "node a\nmap e a\nmap e a\narglet x e\n",
        "node a\nmap e a\narglet x e\narglet x e\n",
    ]
    for text in cases:
        with pytest.raises(DuplicateDeclaration):
            parse_afo(text)


def test_duplicate_attacks_merge_silently():
    text = "node n\nmap e n\narglet x e\narglet y e\nattack x.e y.e\nattack x.e y.e\n"
    doc, warnings = parse_afo(text)
    assert doc.attacks == ((("x", "e"), ("y", "e")),)
    assert warnings == []


def test_unknown_references():
    cases = [
        ("node a\ncover a ghost\nmap e a\narglet x e\n", "cover"),
        ("node a\ngeneral ghost\nmap e a\narglet x e\n", "general"),
        ("node a\nmap e ghost\narglet x e\n", "map"),
        ("node a\nmap e a\narglet x ghost\n", "arglet"),
        ("node a\nmap e a\narglet x e\nattack x.e y.e\n", "attack"),
        ("node a\nmap e a\narglet x e\nattack x ghost\n", "attack"),
    ]
    for text, needle in cases:
        with pytest.raises(UnknownReference) as err:
            parse_afo(text)
        assert needle in str(err.value)


def test_attack_endpoint_forms():
    with pytest.raises(AfoSyntaxError) as err:
        parse_afo("node n\nmap e n\narglet x e\narglet y e\nattack x.e y\n")
    assert "both" in str(err.value)
    with pytest.raises(AfoSyntaxError):
        parse_afo("node n\nmap e n\narglet x e\nattack x.e.z x.e\n")


def test_attack_sugar_expands_all_pairs():
    text = (
        "node n\nmap e1 n\nmap e2 n\nmap e3 n\n"
        "arglet a e1\narglet a e2\narglet b e3\n"
        "attack a b\n"
    )
    doc, warnings = parse_afo(text)
    assert warnings == ["W001 line 8: attack a b expanded to all arglet pairs"]
    assert set(doc.attacks) == {
        (("a", "e1"), ("b", "e3")),
        (("a", "e2"), ("b", "e3")),
    }


def test_mutual_fixture_warnings(fixtures_dir):
    text = (fixtures_dir / "mutual.afo").read_text()
    doc, warnings = parse_afo(text)
    assert len(warnings) == 2
    assert all(w.startswith("W001 line ") for w in warnings)
    assert set(doc.attacks) == {
        (("x", "claim"), ("y", "claim")),
        (("y", "claim"), ("x", "claim")),
    }


def test_round_trip_fixtures(fixtures_dir):
    for name in ["fix1.afo", "fix3.afo", "mutual.afo"]:
        doc, _ = parse_afo((fixtures_dir / name).read_text())
        again, warnings = parse_afo(serialize_afo(doc))
        assert again == doc
        # canonical form spells out every arglet pair, so no sugar warnings
        assert warnings == []


def test_build_model_defaults_blocked_to_top(fixtures_dir):
    doc, _ = parse_afo((fixtures_dir / "mutual.afo").read_text())
    model = build_model(doc)
    assert model.blocked == frozenset({"only"})
    assert model.lattice.top == "only"

    doc, _ = parse_afo((fixtures_dir / "fix1.afo").read_text())
    assert build_model(doc).blocked == frozenset({"Top"})


def test_build_model_blocked_is_upward_closure():
    text = """\
node Bot
node L
node R
node Top
cover Bot L
cover Bot R
cover L Top
cover R Top
general L
map el L
arglet a el
"""
    model = build_model(parse_afo(text)[0])
    assert model.blocked == frozenset({"L", "Top"})


def test_build_model_rejects_broken_lattice(fixtures_dir):
    doc, _ = parse_afo((fixtures_dir / "broken_nonlattice.afo").read_text())
    with pytest.raises(NonUniqueJoin):
        build_model(doc)


def _document(lattice, fmap, framework, generals) -> AfoDocument:
    return AfoDocument(
        nodes=tuple(sorted(lattice.nodes)),
        covers=tuple(sorted(lattice.covers)),
        generals=tuple(sorted(generals)),
        assignments=tuple(sorted(fmap.items())),
        arglets=tuple(sorted(framework.arglets)),
        attacks=tuple(sorted(framework.attacks)),
    )


def test_generated_documents_round_trip():
    rng = random.Random(6061)
    for _ in range(150):
        if rng.random() < 0.25:
            framework, lattice, fmap, generals = multi_hub_instance(rng)
        else:
            lattice = random_lattice(rng)
            fmap = random_map(rng, lattice)
            framework = mapped_framework(rng, fmap)
            generals = rng.sample(sorted(lattice.nodes), rng.randint(0, 2))
        doc = _document(lattice, fmap, framework, generals)
        assert parse_afo(serialize_afo(doc)) == (doc, [])
        model = build_model(doc)
        assert model.framework == framework
        assert model.blocked == lattice.upward_closure(generals or [lattice.top])


# directives, plain and dotted identifiers, broken dotted forms, comments
TOKENS = [
    "node", "cover", "general", "expr", "map", "arglet", "attack",
    "n", "e", "a", "a.e", ".", "a.", ".e", "a.e.f", "#", "NODE", "\t", "é", "\n",
]


def test_random_token_streams_raise_only_afo_errors():
    # a few edits to a valid document, so that some streams still parse
    rng = random.Random(4242)
    parsed = 0
    for _ in range(1500):
        lattice = random_lattice(rng, max_nodes=5)
        fmap = random_map(rng, lattice, max_exprs=3)
        doc = _document(lattice, fmap, mapped_framework(rng, fmap, max_args=3), [])
        words = serialize_afo(doc).replace("\n", " \n ").split(" ")
        for _ in range(rng.randint(0, 3)):
            at = rng.randrange(len(words) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                words.insert(at, rng.choice(TOKENS))
            elif at < len(words):
                words[at:at + 1] = [] if edit == 1 else [rng.choice(TOKENS + words)]
        try:
            doc, _ = parse_afo(" ".join(words))
        except AfoError:
            continue
        parsed += 1
        assert parse_afo(serialize_afo(doc))[0] == doc
    assert 100 < parsed < 1400
