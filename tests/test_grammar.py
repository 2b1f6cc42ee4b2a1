"""Grammar parsing, validation, and nullability."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgzip import (
    Cfg,
    EmptyLanguageError,
    GrammarError,
    GrammarSource,
    derives_epsilon,
    oracle_membership,
    parse_grammar,
    render_grammar,
    validate,
)

from conftest import GRAMMARS, SHAPES, random_grammars, suite_grammar


def test_single_rule_literal():
    g = parse_grammar('root ::= "a"')
    assert g.nonterminals == ("root",)
    assert g.productions == (("root", (0x61,)),)
    assert g.start == "root"
    assert g.alphabet == frozenset({0x61})


def test_dyck1_epsilon_alternative():
    g = parse_grammar('root ::= "(" root ")" root | ""')
    assert len(g.productions) == 2
    assert g.productions[0] == ("root", (0x28, "root", 0x29, "root"))
    assert g.productions[1] == ("root", ())


def test_left_recursive_arith_transcription():
    g = parse_grammar('root ::= expr  expr ::= expr "+" term | term  term ::= "n"')
    assert len(g.productions) == 4
    assert g.start == "root"
    assert ("expr", ("expr", 0x2B, "term")) in g.productions


def test_multibyte_literals_expand_to_bytes():
    g = parse_grammar('kw ::= "if" | "while"')
    assert ("kw", (0x69, 0x66)) in g.productions
    assert len(g.alphabet) == len(set(b"ifwhle"))


def test_escapes():
    g = parse_grammar(r'root ::= "\n\t\"\\\x41"')
    assert g.productions[0][1] == (0x0A, 0x09, 0x22, 0x5C, 0x41)


def test_comments_and_blank_lines():
    g = parse_grammar('# header\nroot ::= "a"  # trailing\n\n# done\n')
    assert g.productions == (("root", (0x61,)),)


def test_syntax_error_reports_position():
    with pytest.raises(GrammarError) as err:
        parse_grammar('root ::= "a\nnext ::= "b"')
    assert err.value.line == 1
    assert "line 1" in str(err.value)


def test_undefined_rule_reference():
    with pytest.raises(GrammarError, match="undefined rule 'missing'"):
        parse_grammar("root ::= missing")


def test_empty_grammar():
    with pytest.raises(GrammarError, match="empty grammar"):
        parse_grammar("# nothing here\n")


def test_empty_alternative_rejected():
    with pytest.raises(GrammarError, match="empty alternative"):
        parse_grammar('root ::= "a" | ')


# Each malformed input, with its message and position (None for a
# grammar without rules).  Scanner errors come before parse errors, a
# rule's syntax errors before any undefined reference, and within a
# literal an escape error before the end of its line comes first.
ERRORS = [
    ('r ::= "abc\nq ::= "x"', "unterminated string literal", 1, 7),
    ('r ::= "abc', "unterminated string literal", 1, 7),
    ('r ::= "a\\', "dangling escape", 1, 9),
    ('r ::= "\\', "dangling escape", 1, 8),
    ('r ::= "a\\\\', "unterminated string literal", 1, 7),
    ('r ::= "a\\q"', "unknown escape \\q", 1, 9),
    ('r ::= "\\xZZ"', "bad \\xHH escape", 1, 8),
    ('r ::= "\\x4"', "bad \\xHH escape", 1, 8),
    ('r ::= "\\x4', "bad \\xHH escape", 1, 8),
    ('r ::= "a\\\nb"', "unknown escape \\\n", 1, 9),
    ('r ::= "a\\\n', "unknown escape \\\n", 1, 9),
    ('r ::= "ok" "\\q\nq ::= "x', "unknown escape \\q", 1, 13),
    ('r ::= "a" "b\n"\\q"', "unterminated string literal", 1, 11),
    ('r ::= "a" @', "unexpected character '@'", 1, 11),
    ("r ::= \u00e9", "unexpected character '\u00e9'", 1, 7),
    ('r ::= "a" : "b"', "unexpected character ':'", 1, 11),
    ("r ::= | @", "unexpected character '@'", 1, 9),
    ("a b", "expected 'name ::=' at start of grammar", 1, 1),
    ("::= x", "expected 'name ::=' at start of grammar", 1, 1),
    ("r ::= a ::= b", "empty alternative in rule 'r'; use \"\" for epsilon", 1, 1),
    ('r ::= "a" |', "empty alternative in rule 'r'; use \"\" for epsilon", 1, 1),
    ('r ::= "a" | | "b"', "empty alternative in rule 'r'; use \"\" for epsilon", 1, 1),
    ('r ::= "a" x\nx ::= |', "empty alternative in rule 'x'; use \"\" for epsilon", 2, 1),
    ("r ::= missing\nq ::= |", "empty alternative in rule 'q'; use \"\" for epsilon", 2, 1),
    ('r ::= "a"\nq ::= missing', "reference to undefined rule 'missing'", 2, 1),
    ('r ::= "a" ::=', "unexpected '::='", 1, 11),
    ('r ::= "a"\nr2 ::= ::=', "unexpected '::='", 2, 8),
    ("", "empty grammar in <literal>: no rules", None, None),
    ("# only a comment\n", "empty grammar in <literal>: no rules", None, None),
    ("  \n\t\n", "empty grammar in <literal>: no rules", None, None),
    ('r ::= "a"\r\n\tq ::= "b"\r\n\t# note\r\ns ::=\t"c" @', "unexpected character '@'", 4, 11),
]


@pytest.mark.parametrize("text,message,line,col", ERRORS)
def test_error_message_and_position(text, message, line, col):
    with pytest.raises(GrammarError) as err:
        parse_grammar(text)
    where = "" if line is None else f" (line {line}, column {col})"
    assert str(err.value) == message + where
    assert (err.value.line, err.value.col) == (line, col)


# Valid inputs and the Cfg each gives: (nonterminals, productions, start).
PARSES = [
    (
        'r ::= "h\u00e9llo" | "\u65e5\u672c"',
        ("r",),
        (("r", tuple("h\u00e9llo".encode())), ("r", tuple("\u65e5\u672c".encode()))),
        "r",
    ),
    ('r ::= "a\rb\tc"', ("r",), (("r", (97, 13, 98, 9, 99)),), "r"),
    (
        "A' ::= b_61' \"x\"\nb_61' ::= \"y\" | A-b\nA-b ::= \"\"",
        ("A'", "b_61'", "A-b"),
        (("A'", ("b_61'", 120)), ("b_61'", (121,)), ("b_61'", ("A-b",)), ("A-b", ())),
        "A'",
    ),
    (
        'r ::= "a" q\r\nq ::= "b"\r\n   | ""\r\n',
        ("r", "q"),
        (("r", (97, "q")), ("q", (98,)), ("q", ())),
        "r",
    ),
    ('r ::= "\\x00\\xFf\\x7f" "" "\\"\\\\"', ("r",), (("r", (0, 255, 127, 34, 92)),), "r"),
    (
        'r ::= x x|"" y\n# c\ny ::= x\nx::="z"|y',
        ("r", "x", "y"),
        (("r", ("x", "x")), ("r", ("y",)), ("y", ("x",)), ("x", (122,)), ("x", ("y",))),
        "r",
    ),
    ('r ::= "a"\nr ::= "b"', ("r",), (("r", (97,)), ("r", (98,))), "r"),
]


@pytest.mark.parametrize("text,nonterminals,productions,start", PARSES)
def test_parse_gives_cfg(text, nonterminals, productions, start):
    alphabet = frozenset(s for _, body in productions for s in body if isinstance(s, int))
    assert parse_grammar(text) == Cfg(nonterminals, alphabet, productions, start)


@st.composite
def byte_grammars(draw):
    """A random grammar whose bytes a, b and c are mapped to distinct
    bytes drawn from 0-255, quotes, backslashes and controls included."""
    g, _ = draw(random_grammars(SHAPES))
    special = st.sampled_from(b'"\\\n\t\r\x00\x7f\x80\xff')
    targets = draw(
        st.lists(st.one_of(special, st.integers(0, 255)), min_size=3, max_size=3, unique=True)
    )
    to = dict(zip(b"abc", targets))
    productions = tuple(
        (h, tuple(to[s] if isinstance(s, int) else s for s in body)) for h, body in g.productions
    )
    return Cfg(g.nonterminals, frozenset(to[b] for b in g.alphabet), productions, g.start)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(byte_grammars())
def test_render_roundtrip_every_byte_value(g):
    again = parse_grammar(render_grammar(g))
    assert again.productions == g.productions
    assert (again.start, again.alphabet) == (g.start, g.alphabet)


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_render_roundtrip(name):
    g = suite_grammar(name)
    again = parse_grammar(GrammarSource(render_grammar(g), f"render({name})"))
    assert again == g


def test_validate_keeps_dyck_unchanged():
    g = parse_grammar(GRAMMARS["dyck1"])
    assert validate(g) == g


def test_validate_removes_nonproductive():
    g = parse_grammar('root ::= "a" | dead\ndead ::= dead "x"')
    v = validate(g)
    assert "dead" not in v.nonterminals
    assert v.productions == (("root", (0x61,)),)


def test_validate_removes_unreachable():
    g = parse_grammar('root ::= "a"\nlost ::= "b"')
    v = validate(g)
    assert v.nonterminals == ("root",)
    assert 0x62 not in v.alphabet


def test_validate_empty_language():
    with pytest.raises(EmptyLanguageError, match="empty"):
        validate(parse_grammar("root ::= root"))


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_validate_idempotent(name):
    v = suite_grammar(name)
    assert validate(v) == v


def test_validate_preserves_membership():
    # Membership of every short string is unchanged by validation.
    g = parse_grammar('root ::= "a" root "b" | "" | junk "x"\njunk ::= junk "y"')
    v = validate(g)
    for n in range(0, 7):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            assert oracle_membership(g, w) == oracle_membership(v, w)


def test_derives_epsilon_dyck():
    g = suite_grammar("dyck1")
    assert derives_epsilon(g, "root") is True


def test_derives_epsilon_terminal_rule():
    g = parse_grammar('term ::= "n"')
    assert derives_epsilon(g, "term") is False


def test_derives_epsilon_through_chain():
    # Frozen by enumerating derivations: a => b b => eps eps.
    g = parse_grammar('a ::= b b\nb ::= "" | "x"')

    def derivable_epsilon(sym, depth):
        if depth == 0:
            return False
        return any(
            all(isinstance(s, str) and derivable_epsilon(s, depth - 1) for s in body)
            for h, body in g.productions
            if h == sym
        )

    assert derivable_epsilon("a", 3) is True
    assert derives_epsilon(g, "a") is True


def test_direct_cfg_construction_checks_invariants():
    with pytest.raises(GrammarError):
        Cfg(nonterminals=("a",), alphabet=frozenset(), productions=(("a", ("ghost",)),), start="a")
    with pytest.raises(GrammarError):
        Cfg(nonterminals=("a",), alphabet=frozenset(), productions=(("a", ()),), start="b")


def test_nonterminal_interning_order_is_first_appearance():
    g = parse_grammar('root ::= later first\nfirst ::= "a"\nlater ::= "b"')
    assert g.nonterminals == ("root", "later", "first")
