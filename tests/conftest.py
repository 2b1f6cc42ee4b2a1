"""Shared test grammars and vocabularies.

Five grammars cover the behaviours that matter: nesting (Dyck-1/2),
left recursion (arithmetic), mixed structures (a JSON subset), and a
statement-oriented C-like grammar with keywords.  Vocabularies follow
one recipe: every byte string up to a length cap over the grammar's
alphabet (sampled at length 3 for the two larger alphabets to keep the
naive-mask baseline tractable), a seeded handful of longer tokens, one
empty token, one byte-duplicate, and an end-of-sequence special.
"""

from __future__ import annotations

import itertools
import random
import struct
import zlib
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from cfgzip import Cfg, EmptyLanguageError, Vocabulary, parse_grammar, validate

DYCK1 = 'root ::= "(" root ")" root | ""'

DYCK2 = 'root ::= "(" root ")" root | "[" root "]" root | ""'

ARITH = """
expr ::= expr "+" term | term
term ::= term "*" factor | factor
factor ::= "(" expr ")" | "n"
"""

JSON_MINI = """
value ::= string | number | array | object
string ::= "\\"" chars "\\""
chars ::= "" | char chars
char ::= "a" | "b"
number ::= "-" digits | digits
digits ::= digit | digit digits
digit ::= "0" | "1"
array ::= "[" "]" | "[" elements "]"
elements ::= value | value "," elements
object ::= "{" "}" | "{" members "}"
members ::= pair | pair "," members
pair ::= string ":" value
"""

MINI_C = """
program ::= stmt | stmt program
stmt ::= ";" | assign ";" | ifst | whilest | block
ifst ::= "if" "(" cond ")" stmt | "if" "(" cond ")" stmt "else" stmt
whilest ::= "while" "(" cond ")" stmt
assign ::= id "=" expr
block ::= "{" "}" | "{" stmts "}"
stmts ::= stmt | stmt stmts
cond ::= expr | expr "<" expr | expr ">" expr | expr "==" expr
expr ::= expr "+" mul | expr "-" mul | mul
mul ::= mul "*" unit | unit
unit ::= id | num | "(" expr ")" | "!" unit | id "(" ")"
id ::= "x" | "y"
num ::= digit | digit num
digit ::= "0" | "1"
"""

GRAMMARS = {
    "dyck1": DYCK1,
    "dyck2": DYCK2,
    "arith": ARITH,
    "json_mini": JSON_MINI,
    "mini_c": MINI_C,
}

# Exhaustive short-token length per grammar; alphabets above ~6 bytes get
# sampled 3-byte tokens instead of the full cube to keep naive masks fast.
EXHAUSTIVE_LEN = {"dyck1": 3, "dyck2": 3, "arith": 3, "json_mini": 2, "mini_c": 2}
SAMPLED_3BYTE = {"dyck1": 0, "dyck2": 0, "arith": 0, "json_mini": 120, "mini_c": 120}

EOS_BYTES = b"\x00"


def suite_grammar(name: str) -> Cfg:
    return validate(parse_grammar(GRAMMARS[name]))


def suite_vocabulary(name: str, long_tokens: int = 50, seed: int = 1234) -> Vocabulary:
    g = suite_grammar(name)
    alphabet = sorted(g.alphabet)
    rng = random.Random(seed)
    tokens: list[bytes] = []
    for n in range(1, EXHAUSTIVE_LEN[name] + 1):
        tokens.extend(bytes(p) for p in itertools.product(alphabet, repeat=n))
    if SAMPLED_3BYTE[name]:
        tokens.extend(
            bytes(rng.choice(alphabet) for _ in range(3)) for _ in range(SAMPLED_3BYTE[name])
        )
    for _ in range(long_tokens):
        length = rng.randint(4, 8)
        tokens.append(bytes(rng.choice(alphabet) for _ in range(length)))
    tokens.append(b"")  # tokenizers can carry empty tokens
    tokens.append(bytes([alphabet[0]]))  # deliberate byte-duplicate
    tokens.append(EOS_BYTES)
    eos = len(tokens) - 1
    return Vocabulary(tokens=tuple(tokens), specials=frozenset({eos}), eos_id=eos)


@pytest.fixture(scope="session")
def grammars() -> dict[str, Cfg]:
    return {name: suite_grammar(name) for name in GRAMMARS}


@pytest.fixture(scope="session", params=sorted(GRAMMARS))
def grammar_name(request) -> str:
    return request.param


# Every shape ``random_grammars`` draws.
SHAPES = ("free", "left", "right", "byte", "unit", "eps")


@st.composite
def random_grammars(draw, shapes):
    """A random validated grammar and the alphabet drawn for it.

    Up to four nonterminals over up to three bytes.  Each nonterminal gets
    one to three bodies, each of a shape from ``shapes``: free,
    left-recursive, right-recursive, a single byte, unit or epsilon.
    Later nonterminals come first so they stay reachable.
    """
    names = [f"n{i}" for i in range(draw(st.sampled_from([1, 2, 3, 4])))]
    alphabet = list(b"abc"[: draw(st.sampled_from([1, 2, 3]))])
    symbol = st.sampled_from(alphabet + names[::-1])
    productions = []
    for head in names:
        for shape in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3)):
            if shape == "free":
                body = tuple(draw(st.lists(symbol, min_size=1, max_size=3)))
            elif shape == "left":
                body = (head,) + tuple(draw(st.lists(symbol, min_size=1, max_size=2)))
            elif shape == "right":
                body = tuple(draw(st.lists(symbol, min_size=1, max_size=2))) + (head,)
            elif shape == "byte":
                body = (draw(st.sampled_from(alphabet)),)
            elif shape == "unit":
                body = (draw(st.sampled_from(names[::-1])),)
            else:
                body = ()
            productions.append((head, body))
    g = Cfg(tuple(names), frozenset(alphabet), tuple(productions), names[0])
    try:
        g = validate(g)
    except EmptyLanguageError:
        assume(False)
    return g, alphabet


def figure_grammar():
    """The six-production inspection grammar used for displacement goldens.

    Built directly in GNF form (J and K stay unexpanded on purpose), so it
    bypasses parse/validate.
    """
    from cfgzip import GnfGrammar

    return GnfGrammar(
        nonterminals=("A", "B", "C", "X", "Y", "Z", "J", "K"),
        alphabet=frozenset(b"abcxyz"),
        productions=(
            ("A", ord("a"), ("B", "C")),
            ("B", ord("b"), ()),
            ("C", ord("c"), ()),
            ("X", ord("x"), ("Y",)),
            ("Y", ord("y"), ("Z", "J", "K")),
            ("Z", ord("z"), ()),
        ),
        start="A",
    )


def hosted_figure_grammar():
    """The inspection grammar wrapped in a host production ``S -> s A X``,
    which makes the stack pair (A below X) actually realisable in a parse."""
    from cfgzip import GnfGrammar

    return GnfGrammar(
        nonterminals=("S", "A", "B", "C", "X", "Y", "Z", "J", "K"),
        alphabet=frozenset(b"sabcxyz"),
        productions=(
            ("S", ord("s"), ("A", "X")),
            ("A", ord("a"), ("B", "C")),
            ("B", ord("b"), ()),
            ("C", ord("c"), ()),
            ("X", ord("x"), ("Y",)),
            ("Y", ord("y"), ("Z", "J", "K")),
            ("Z", ord("z"), ()),
        ),
        start="S",
    )


def earley_item_sets(g: Cfg, data: bytes) -> list[frozenset] | None:
    """Textbook Earley recognition of ``data``: the full item set at every
    position, as (production index, dot, origin) triples, or None once a
    byte scans nothing.

    An independent reference for the engine: no prediction tables, no Leo
    items, no nullable shortcut.  Predictor and completer run over the
    whole set until it stops growing, so zero-width completions need no
    special case.  Production indices are those of ``g``, which must be
    validated.
    """
    prods = g.productions

    def waits_on(pid, dot, sym):
        body = prods[pid][1]
        return dot < len(body) and body[dot] == sym

    sets: list[frozenset] = []
    current = {(pid, 0, 0) for pid, (head, _) in enumerate(prods) if head == g.start}
    for i in range(len(data) + 1):
        grew = True
        while grew:
            grew = False
            for pid, dot, org in list(current):
                head, body = prods[pid]
                if dot < len(body):
                    if isinstance(body[dot], int):
                        continue
                    new = [(p, 0, i) for p, (h, _) in enumerate(prods) if h == body[dot]]
                else:
                    waiting = current if org == i else sets[org]
                    new = [(p, d + 1, o) for p, d, o in list(waiting) if waits_on(p, d, head)]
                for item in new:
                    if item not in current:
                        current.add(item)
                        grew = True
        sets.append(frozenset(current))
        if i == len(data):
            return sets
        current = {(p, d + 1, o) for p, d, o in current if waits_on(p, d, data[i])}
        if not current:
            return None


def carried_items(frontier) -> frozenset:
    """The items an engine frontier carries in from earlier frontiers, as
    (production index, dot, origin position) triples."""
    return frozenset((pid, dot, org.pos) for pid, dot, org in frontier.items)


@contextmanager
def counting_closes():
    """Count the frontiers the engine closes while the block runs, keyed
    by (position, carried items)."""
    from cfgzip.engine import _EngineGrammar

    closed: Counter = Counter()
    close = _EngineGrammar.close

    def counted(self, seeds, pos):
        frontier = close(self, seeds, pos)
        closed[(frontier.pos, carried_items(frontier))] += 1
        return frontier

    _EngineGrammar.close = counted
    try:
        yield closed
    finally:
        _EngineGrammar.close = close


def rewrite_cache_id(path, field: str, value: int) -> None:
    """Set the first id of ``field`` ("c", "r" or "passthrough") in a
    cache file to ``value`` and recompute the CRC, so only the id is wrong."""
    data = bytearray(path.read_bytes())
    # The 84-byte header ends with the token, class and pass-through counts.
    t_count, e_count = struct.unpack_from("<II", data, 72)
    offset = 84 + 4 * {"c": 0, "r": t_count, "passthrough": t_count + e_count}[field]
    struct.pack_into("<I", data, offset, value)
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
