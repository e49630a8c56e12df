import gc
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple

import pytest

from afo import AfoError, NonUniqueJoin
from afo.errors import AfoFileError, AfoSyntaxError, DuplicateDeclaration, UnknownReference
from afo.format import AfoDocument, build_model, load_afo, parse_afo, serialize_afo

from generators import flower_document, mapped_framework, multi_hub_instance, random_lattice, random_map
from oracles import oracle_parse_outcome

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
        ("node a\nnode a\n", "line 2: node 'a' already declared"),
        ("node a\nnode b\ncover a b\ncover a b\n", "line 4: cover a b already declared"),
        ("node a\ngeneral a\ngeneral a\n", "line 3: general 'a' already declared"),
        ("node a\nexpr e\nexpr e\nmap e a\narglet x e\n", "line 3: expr 'e' already declared"),
        ("node a\nmap e a\nmap e a\narglet x e\n", "line 3: expression 'e' already mapped"),
        ("node a\nmap e a\narglet x e\narglet x e\n", "line 4: arglet x e already declared"),
        # found while reading, so it wins over the unknown node of line 1
        ("map e ghost\nnode a\nnode a\n", "line 3: node 'a' already declared"),
    ]
    for text, message in cases:
        with pytest.raises(DuplicateDeclaration) as err:
            parse_afo(text)
        assert str(err.value) == message


def test_duplicate_attacks_merge_silently():
    text = "node n\nmap e n\narglet x e\narglet y e\nattack x.e y.e\nattack x.e y.e\n"
    doc, warnings = parse_afo(text)
    assert doc.attacks == ((("x", "e"), ("y", "e")),)
    assert warnings == []


def test_unknown_references():
    cases = [
        ("node a\ncover a ghost\nmap e a\narglet x e\n", "line 2: cover references undeclared node 'ghost'"),
        ("node a\ngeneral ghost\nmap e a\narglet x e\n", "line 2: general references undeclared node 'ghost'"),
        ("node a\nmap e ghost\narglet x e\n", "line 2: map references undeclared node 'ghost'"),
        ("node a\nmap e a\narglet x ghost\n", "line 3: arglet references undeclared expression 'ghost'"),
        ("node a\nmap e a\narglet x e\nattack x.e y.e\n", "line 4: attack references undeclared arglet y.e"),
        ("node a\nmap e a\narglet x e\nattack x ghost\n", "line 4: attack references unknown argument 'ghost'"),
        # covers are resolved before maps, whatever the line order
        ("node a\nmap e ghost\ncover a phantom\narglet x e\n", "line 3: cover references undeclared node 'phantom'"),
    ]
    for text, message in cases:
        with pytest.raises(UnknownReference) as err:
            parse_afo(text)
        assert str(err.value) == message


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


def test_load_afo_peak_memory_has_a_ceiling(tmp_path):
    """`load_afo` on `flower_document(random.Random(1), 1000)` written to a
    file (5,002 lattice nodes, 9,000 covers), under `tracemalloc`.
    Measured on Python 3.11.7: 8.36 MiB; with parse tables that store each
    line's split list, not a tuple of its identifiers, 10.11 MiB."""
    path = tmp_path / "flower.afo"
    path.write_text(flower_document(random.Random(1), 1000), encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        model, document, _ = load_afo(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(document.nodes) == len(model.lattice.nodes) == 5002
    assert peak < 9.5 * 2**20


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


def _base_documents(fixtures_dir, rng: random.Random) -> list[str]:
    """The fixtures, and generated documents written with `expr` lines,
    attack sugar, comments and blank lines in a shuffled order."""
    texts = [p.read_text() for p in sorted(fixtures_dir.glob("*.afo"))]
    for _ in range(60):
        if rng.random() < 0.25:
            framework, lattice, fmap, generals = multi_hub_instance(rng)
        else:
            lattice = random_lattice(rng, max_nodes=6)
            fmap = random_map(rng, lattice, max_exprs=4)
            framework = mapped_framework(rng, fmap, max_args=4)
            generals = rng.sample(sorted(lattice.nodes), min(2, len(lattice.nodes)))
        lines = serialize_afo(_document(lattice, fmap, framework, generals)).splitlines()
        lines += [f"expr {s}" for s, _ in fmap.items() if rng.random() < 0.4]
        for i, line in enumerate(lines):
            if line.startswith("attack") and rng.random() < 0.3:
                src, dst = (end.split(".")[0] for end in line.split()[1:])
                lines[i] = f"attack {src} {dst}"
        lines += ["", "# comment"] * rng.randint(0, 1)
        rng.shuffle(lines)
        texts.append("\n".join(lines) + "\n")
    return texts


def _mutate(rng: random.Random, lines: list[list[str]]) -> None:
    """One edit: repeat a line (half the time with one token changed), drop
    a line, or replace, insert or drop a token.  New tokens come from the
    document itself three times in four, else from TOKENS."""
    words = [w for line in lines for w in line] or TOKENS

    def token() -> str:
        return rng.choice(words if rng.random() < 0.75 else TOKENS)

    if not lines:
        lines.append([token()])
        return
    line = lines[rng.randrange(len(lines))]
    edit = rng.choices(["repeat", "drop line", "replace", "insert", "drop"], [3, 3, 3, 1, 1])[0]
    if edit == "repeat":
        copy = list(line)
        if copy and rng.random() < 0.5:
            copy[rng.randrange(len(copy))] = token()
        lines.insert(rng.randrange(len(lines) + 1), copy)
    elif edit == "drop line":
        lines.remove(line)
    elif edit == "insert":
        line.insert(rng.randrange(len(line) + 1), token())
    elif line:
        at = rng.randrange(len(line))
        if edit == "replace":
            line[at] = token()
        else:
            del line[at]


def _outcome(text: str):
    try:
        doc, warnings = parse_afo(text)
    except AfoFileError as err:
        return type(err).__name__, err.line, str(err).removeprefix(f"line {err.line}: ")
    return (*astuple(doc), warnings)


def test_parser_matches_the_former_parser(fixtures_dir):
    """The directive table gives the document, warnings or first error
    (class, line and message) of the former one-branch-per-directive parser."""
    rng = random.Random(9090)
    bases = _base_documents(fixtures_dir, rng)
    seen: Counter = Counter()
    for n in range(5000):
        lines = [line.split(" ") for line in bases[n % len(bases)].splitlines()]
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, lines)
        text = "\n".join(" ".join(line) for line in lines)
        got = _outcome(text)
        assert got == oracle_parse_outcome(text), text
        if len(got) == 3:
            kind, _, message = got
            words = message.split()
            shape = words[0] if kind == "DuplicateDeclaration" else " ".join(w for w in words if "'" not in w and "." not in w)
            seen[kind] += 1
            if kind != "AfoSyntaxError":
                seen[kind, shape] += 1
        else:
            seen["parsed"] += 1
    duplicates = {"node", "cover", "general", "expr", "expression", "arglet"}
    references = {
        "cover references undeclared node",
        "general references undeclared node",
        "map references undeclared node",
        "expression is never mapped to a node",
        "arglet references undeclared expression",
        "attack references undeclared arglet",
        "attack references unknown argument",
    }
    wanted = ["parsed", "AfoSyntaxError", "DuplicateDeclaration", "UnknownReference"]
    wanted += [("DuplicateDeclaration", s) for s in duplicates] + [("UnknownReference", s) for s in references]
    assert {key for key in seen if isinstance(key, tuple)} == set(wanted[4:])
    assert min(seen[key] for key in wanted) >= 20, seen


SCANNED = """\
node bot
node top
cover bot top
map e top
map f bot
arglet a e
arglet b f
attack a.e b.f
"""


def test_scanner_matches_the_former_parser_on_comments_and_whitespace():
    """Comments glued to a token or after tabs, comment-only and blank lines,
    dots inside comments and in each declaring directive's identifiers, and
    every whitespace character as a separator, around a line and alone on
    one: the outcome, error line included, is the former parser's."""
    # every character `str.split()` takes for whitespace, and those of them
    # that `str.splitlines()` keeps inside a line
    whitespace = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    in_line = [w for w in whitespace if len(f"a{w}b".splitlines()) == 1]
    assert set("\t\x1f\xa0\u3000") <= set(in_line)
    assert set("\x0b\x0c\x1c\x85\u2028") <= set(whitespace) - set(in_line)
    lines = SCANNED.splitlines()
    texts = [
        SCANNED.replace("node top", "node top#b"),
        SCANNED.replace("node top", "node a#b\nnode top"),
        SCANNED.replace("node top", "node top\t\t# tabs\n\t#\tc\n\t\t#"),
        SCANNED.replace("node top", "node top # x.y\n# a.b c.d\n \t \n"),
        SCANNED.replace("attack a.e b.f", "attack a.e b.f#.\nattack a b # a.e"),
        SCANNED + "node c # x.y\nbogus.x\n",
        SCANNED + "# a.b\nnode#x.y\n",
        "#\n" + SCANNED + "cover#bot top\n",
    ]
    for directive in ("node", "cover", "general", "expr", "map", "arglet"):
        for at, line in enumerate(lines):
            if line.startswith(directive + " "):
                texts += ["\n".join(lines[:at] + [line + tail] + lines[at + 1:]) for tail in (".x", ".")]
                words = line.split()
                texts.append("\n".join(lines[:at] + [" ".join(words[:2] + ["x.y"] * (len(words) - 2))] + lines[at + 1:]))
        texts.append(SCANNED + f"{directive} x.y # z\n")
    for w in whitespace:
        spaced = "\n".join(w + line.replace(" ", w) + w for line in lines)
        texts += [spaced, spaced + f"\n{w}\n{w}#{w}x.y\nbogus{w}x#", f"node{w}#{w}\n" + SCANNED]
        got = _outcome(f"{w}node{w}bot{w}\n{w}\nbogus\n")
        if w in in_line:
            assert got == ("AfoSyntaxError", 3, "unknown directive 'bogus'")
            assert _outcome(spaced) == _outcome(SCANNED)
        else:
            assert got == ("AfoSyntaxError", 2, "node takes 1 argument(s), got 0")
    parsed = 0
    for text in texts:
        got = _outcome(text)
        assert got == oracle_parse_outcome(text), text
        parsed += len(got) > 3
    assert 20 <= parsed <= len(texts) - 20


def test_each_reference_is_its_declarations_object(fixtures_dir):
    """A parsed document holds each identifier once: every reference is the
    object of its declaration, in the document and in the model built from it."""
    built = 0
    for text in _base_documents(fixtures_dir, random.Random(2929)):
        doc, _ = parse_afo(text)
        nodes = {id(n) for n in doc.nodes}
        assert {id(n) for cover in doc.covers for n in cover} <= nodes
        assert {id(g) for g in doc.generals} <= nodes
        assert {id(n) for _, n in doc.assignments} <= nodes
        assert {id(s) for _, s in doc.arglets} <= {id(s) for s, _ in doc.assignments}
        first: dict[str, str] = {}
        assert all(first.setdefault(arg, arg) is arg for arg, _ in doc.arglets)
        arglets = {id(al) for al in doc.arglets}
        assert {id(al) for attack in doc.attacks for al in attack} <= arglets
        try:
            model = build_model(doc)
        except NonUniqueJoin:
            continue
        built += 1
        assert {id(al) for attack in model.framework.attacks for al in attack} <= arglets
        assert {id(c) for c in model.lattice.covers} == {id(c) for c in doc.covers}
    assert built >= 60
