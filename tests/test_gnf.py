"""GNF conversion: language preservation, shape, and the induced PDA."""

import itertools

import pytest
from hypothesis import given, settings

from cfgzip import (
    GnfGrammar,
    GnfSizeError,
    GrammarError,
    parse_grammar,
    pda_accepts,
    pda_prefix_viable,
    render_gnf,
    to_gnf,
    transition_function,
    validate,
)
from cfgzip.gnf import gnf_to_cfg
from cfgzip.oracle import bounded_language, oracle_membership, oracle_prefix

from conftest import GRAMMARS, figure_grammar, random_grammars, suite_grammar


def assert_gnf_shape(gnf):
    # Every production: one leading byte, tail of non-start nonterminals.
    for head, term, tail in gnf.productions:
        assert isinstance(term, int) and 0 <= term <= 255
        assert all(isinstance(s, str) for s in tail)
        assert gnf.start not in tail


def test_single_terminal_is_already_gnf():
    gnf = to_gnf(validate(parse_grammar('root ::= "a"')))
    assert gnf.productions == (("root", 0x61, ()),)
    assert gnf.start_derives_epsilon is False


def test_dyck1_epsilon_flag_and_first_byte():
    gnf = to_gnf(suite_grammar("dyck1"))
    assert gnf.start_derives_epsilon is True
    assert all(term == 0x28 for head, term, tail in gnf.productions if head == gnf.start)
    assert_gnf_shape(gnf)


def test_left_recursion_eliminated_language():
    g = validate(parse_grammar('expr ::= expr "+" term | term\nterm ::= "n"'))
    gnf = to_gnf(g)
    assert_gnf_shape(gnf)
    words = bounded_language(gnf_to_cfg(gnf), 7)
    assert words == frozenset({b"n", b"n+n", b"n+n+n", b"n+n+n+n"})


def test_epsilon_only_language():
    gnf = to_gnf(validate(parse_grammar('root ::= ""')))
    assert gnf.start_derives_epsilon is True
    assert gnf.productions == ()
    assert pda_accepts(gnf, b"") is True
    assert pda_accepts(gnf, b"x") is False


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_gnf_shape_all_suite_grammars(name):
    assert_gnf_shape(to_gnf(suite_grammar(name)))


@pytest.mark.parametrize("name", ["dyck1", "dyck2", "arith", "json_mini"])
def test_language_preserved_exhaustively(name):
    # Word sets up to 8 bytes computed by derivation closure on each side.
    # (mini_c is covered by the acceptance suite; it takes ~15s.)
    g = suite_grammar(name)
    gnf = to_gnf(g)
    assert bounded_language(g, 8) == bounded_language(gnf_to_cfg(gnf), 8)
    assert gnf.start_derives_epsilon == (b"" in bounded_language(g, 8))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(random_grammars(("free", "left", "right", "byte", "unit", "eps")))
def test_language_preserved_on_random_grammars(drawn):
    # The shared epsilon, unit, productive and reachable passes, checked
    # from the GNF side on grammars the suite grammars do not cover.
    # The PDA steps the coded tables, so it is checked against the words
    # and prefixes of the source grammar too.
    g, alphabet = drawn
    try:
        gnf = to_gnf(g, max_productions=400)
    except GnfSizeError:
        return  # a few random grammars inflate past the cap
    words = bounded_language(g, 5)
    assert words == bounded_language(gnf_to_cfg(gnf), 5)
    assert gnf.start_derives_epsilon == (b"" in words)
    for n in range(5):
        for w in map(bytes, itertools.product(alphabet, repeat=n)):
            assert pda_accepts(gnf, w) == (w in words), w
            if n <= 3:
                assert pda_prefix_viable(gnf, w) == oracle_prefix(g, w), w


def test_bounded_language_agrees_with_cyk():
    g = suite_grammar("dyck2")
    words = bounded_language(g, 6)
    for n in range(0, 7):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            assert (w in words) == oracle_membership(g, w)


def test_transition_function_single_rule():
    gnf = to_gnf(validate(parse_grammar('root ::= "a"')))
    delta = transition_function(gnf)
    assert delta == {(0x61, "root"): ((),)}
    assert gnf.delta(0x61, "root") == ((),)
    assert gnf.delta(0x62, "root") == ()


def test_transition_function_figure_grammar():
    toy = figure_grammar()
    assert toy.delta(ord("a"), "A") == (("B", "C"),)
    assert toy.delta(ord("b"), "B") == ((),)
    assert toy.delta(ord("y"), "Y") == (("Z", "J", "K"),)
    assert toy.delta(ord("a"), "B") == ()


def test_indexes_are_derived_not_passed():
    # The coded tables always follow the productions: a caller cannot supply them.
    toy = figure_grammar()
    code = toy.code
    assert code == {nt: chr(i) for i, nt in enumerate(toy.nonterminals)}
    y_tail = code["Z"] + code["J"] + code["K"]
    assert toy.coded_delta[ord("y")] == {code["Y"]: (y_tail,)}
    assert toy.coded_by_byte[ord("y")] == ((code["Y"], y_tail),)
    assert toy.coded_delta[ord("b")] == {code["B"]: ("",)}
    assert set(toy.coded_delta) == set(toy.coded_by_byte) == toy.alphabet
    with pytest.raises(TypeError):
        type(toy)(
            nonterminals=toy.nonterminals,
            alphabet=toy.alphabet,
            productions=toy.productions,
            start=toy.start,
            coded_by_byte={},
        )


def test_duplicate_tails_listed_once_in_first_seen_order():
    # Paull substitution can repeat a production; the PDA lists each tail
    # once per (byte, popped symbol), while coded_by_byte keeps every
    # production, since a backtrack enumerates productions.
    g = GnfGrammar(
        nonterminals=("S", "A", "B"),
        alphabet=frozenset(b"ab"),
        productions=(
            ("S", ord("a"), ("A", "B")),
            ("S", ord("a"), ("B",)),
            ("S", ord("a"), ("A", "B")),
            ("A", ord("a"), ("A", "B")),
            ("A", ord("b"), ()),
            ("B", ord("b"), ()),
        ),
        start="S",
    )
    assert g.delta(ord("a"), "S") == (("A", "B"), ("B",))
    assert g.delta(ord("a"), "A") == (("A", "B"),)
    assert g.delta(ord("b"), "S") == ()
    code = g.code
    s, a, b = code["S"], code["A"], code["B"]
    assert g.coded_by_byte[ord("a")] == ((s, a + b), (s, b), (s, a + b), (a, a + b))
    assert g.coded_by_byte[ord("b")] == ((a, ""), (b, ""))
    rebuilt: dict = {}
    for head, term, tail in g.productions:
        slot = rebuilt.setdefault((term, head), [])
        if tail not in slot:
            slot.append(tail)
    assert transition_function(g) == {k: tuple(v) for k, v in rebuilt.items()}
    assert list(transition_function(g)) == list(rebuilt)


def test_tail_lengths_bounded_by_max():
    # Every body of the Dyck grammars starts with a byte or is empty, so a
    # GNF tail is at most a source body less its leading byte, and the
    # longest body gives the longest tail.  Paull substitution lengthens the
    # tails of arith, json_mini and mini_c, where this bound does not hold.
    for name in ("dyck1", "dyck2"):
        g = suite_grammar(name)
        assert all(not body or isinstance(body[0], int) for _, body in g.productions)
        cap = max(len(body) for _, body in g.productions) - 1
        assert max(len(tail) for _, _, tail in to_gnf(g).productions) == cap, name


@pytest.mark.parametrize("name", ["dyck1", "dyck2", "arith"])
def test_pda_agrees_with_gnf_membership(name):
    # Nondeterministic delta simulation from stack (S) accepts exactly the
    # grammar's words; checked against derivation enumeration plus a full
    # scan of all strings up to length 6 for rejection.
    g = suite_grammar(name)
    gnf = to_gnf(g)
    words = bounded_language(gnf_to_cfg(gnf), 8)
    for w in words:
        assert pda_accepts(gnf, w), w
    for n in range(0, 7):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            assert pda_accepts(gnf, w) == (w in words), w


def test_pda_prefix_viability_matches_oracle():
    g = suite_grammar("dyck1")
    gnf = to_gnf(g)
    for n in range(0, 9):
        for tup in itertools.product(sorted(g.alphabet), repeat=n):
            w = bytes(tup)
            assert pda_prefix_viable(gnf, w) == oracle_prefix(g, w), w


def test_production_cap_aborts_loudly():
    # 21 nullable symbols in one body force an epsilon-elimination explosion.
    src = "root ::= " + " ".join(["opt"] * 21) + '\nopt ::= "x" | ""'
    with pytest.raises(GnfSizeError, match="nullable symbols|exceeds the cap"):
        to_gnf(validate(parse_grammar(src)))


def test_production_cap_configurable():
    with pytest.raises(GnfSizeError, match="exceeds the cap"):
        to_gnf(suite_grammar("mini_c"), max_productions=10)


def test_render_gnf_reparses_to_same_language():
    gnf = to_gnf(suite_grammar("dyck1"))
    reparsed = validate(parse_grammar(render_gnf(gnf)))
    assert bounded_language(reparsed, 8) == bounded_language(gnf_to_cfg(gnf), 8)


def test_gnf_deterministic():
    a = to_gnf(suite_grammar("mini_c"))
    b = to_gnf(suite_grammar("mini_c"))
    assert a.productions == b.productions
    assert a.nonterminals == b.nonterminals


def test_gnf_grammar_rejects_unknown_head():
    with pytest.raises(GrammarError, match="unknown head"):
        GnfGrammar(
            nonterminals=("S",), alphabet=frozenset({97}), productions=(("T", 97, ()),), start="S"
        )
