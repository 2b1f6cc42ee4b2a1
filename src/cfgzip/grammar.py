"""Context-free grammar data model, file format parsing, and validation.

Grammar file format (UTF-8 text):

    # comment
    root ::= "(" root ")" root | ""
    other ::= root "x" | other_rule

One rule per ``name ::= alt1 | alt2 | ...``; a rule ends where the next
``name ::=`` begins, so rules may span lines.  An alternative is a
whitespace-separated sequence of quoted byte-string literals and rule
names (``[A-Za-z_][A-Za-z0-9_'-]*``); ``""`` denotes epsilon.  Literals
denote the bytes of their UTF-8 encoding after escape processing
(``\\"``, ``\\\\``, ``\\n``, ``\\t``, ``\\xHH``).  The first rule is the
start symbol.

The text is scanned by one regular expression.  Each token keeps its
offset, which becomes a line and column only when a ``GrammarError`` is
raised; the parser then cuts the token list into rules at each
``name ::=``.  One escape table serves both directions: the scanner
decodes escapes through it and ``render_grammar`` writes them from it,
so every byte value round-trips.

Internally terminals are individual bytes (ints 0..255) and nonterminals
are identifier strings.  Nonterminals are interned to dense integer ids
in first-appearance order, which keeps downstream numbering (and anything
cached to disk) deterministic.

The grammar passes the package shares are written once, here: the
productive set, ``reachable``, ``nullable_set``, ``drop_epsilon`` with
its size guard, ``drop_units`` and ``render_grammar``.  Each keeps its
output order, since GNF production order sets nonterminal codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby


class GrammarError(ValueError):
    """Problem with a grammar file or grammar structure."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class EmptyLanguageError(GrammarError):
    """The grammar's start symbol derives no terminal string at all."""


@dataclass(frozen=True)
class GrammarSource:
    """Raw grammar text plus where it came from (for error messages)."""

    text: str
    origin: str = "<literal>"


@dataclass(frozen=True)
class Cfg:
    """A context-free grammar over byte terminals.

    ``nonterminals`` is ordered by first appearance; the index of a name in
    it is the nonterminal's dense integer id.  Each production is a
    ``(head, body)`` pair where the body mixes byte ints and nonterminal
    names.  Instances are immutable and safe to share between threads.
    """

    nonterminals: tuple[str, ...]
    alphabet: frozenset[int]
    productions: tuple[tuple[str, tuple[int | str, ...]], ...]
    start: str

    def __post_init__(self):
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a nonterminal")
        heads = {h for h, _ in self.productions}
        for h, body in self.productions:
            for sym in body:
                if isinstance(sym, str):
                    if sym not in self.nonterminals:
                        raise GrammarError(f"undefined nonterminal {sym!r} in a production body")
                elif not 0 <= sym <= 255:
                    raise GrammarError(f"terminal {sym!r} is not a byte value")
        for nt in self.nonterminals:
            if nt not in heads:
                raise GrammarError(f"nonterminal {nt!r} has no productions")


# The one escape table: the byte each escape letter stands for.  The
# scanner decodes through it, and ``_escape_bytes`` renders each of these
# bytes as its escape, any other printable ASCII byte as itself and the
# rest as ``\xHH``.
_ESCAPES = {"n": 0x0A, "t": 0x09, '"': 0x22, "\\": 0x5C}
_RENDERED = [chr(b) if 0x20 <= b < 0x7F else f"\\x{b:02x}" for b in range(256)]
for _letter, _byte in _ESCAPES.items():
    _RENDERED[_byte] = "\\" + _letter

# A literal's body: any character but a quote, backslash or newline, or
# a valid escape.  A quote that opens no whole literal matches ``open``
# up to the fault that stops it; any other character no token starts
# with matches ``bad``.  Blanks and comments before a token are skipped.
_BODY = r'(?:[^"\\\n]|\\(?:[%s]|x[0-9a-fA-F]{2}))*' % re.escape("".join(_ESCAPES))
_TOKEN = re.compile(
    rf"""(?:[ \t\r\n]+|\#[^\n]*)*
    (?: (?P<define>::=) | (?P<pipe>\|) | (?P<literal>"{_BODY}") | (?P<open>"{_BODY})
      | (?P<ident>[A-Za-z_][A-Za-z0-9_'\-]*) | (?P<bad>.) | \Z )""",
    re.X | re.S,
)
_ESCAPE = re.compile(rb"\\(x..|.)")


def _unescape(m: re.Match) -> bytes:
    esc = m[1].decode()
    return bytes((_ESCAPES[esc] if len(esc) == 1 else int(esc[1:], 16),))


def _error(message: str, text: str, at: int) -> GrammarError:
    """A GrammarError at offset ``at`` of ``text``, as 1-based line and column."""
    return GrammarError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """The tokens of ``text`` as ``(kind, value, offset)``: an ident's value
    is the 1-tuple of its name, a literal's the bytes it denotes."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "literal":
            body = m[kind][1:-1]
            value = _ESCAPE.sub(_unescape, body.encode()) if "\\" in body else body.encode()
        elif kind == "ident":
            value = (m[kind],)
        elif kind == "open":
            # The open literal stops at a bad escape, else at its line's end.
            at = m.end()
            if not text.startswith("\\", at):
                raise _error("unterminated string literal", text, m.start(kind))
            if at + 1 == len(text):
                raise _error("dangling escape", text, at)
            esc = text[at + 1]
            raise _error("bad \\xHH escape" if esc == "x" else f"unknown escape \\{esc}", text, at)
        elif kind == "bad":
            raise _error(f"unexpected character {m[kind]!r}", text, m.start(kind))
        elif kind is None:
            continue
        else:
            value = None
        toks.append((kind, value, m.start(kind)))
    return toks


def parse_grammar(src: GrammarSource | str) -> Cfg:
    """Parse grammar text into a Cfg, preserving rule and alternative order."""
    if isinstance(src, str):
        src = GrammarSource(src)
    text = src.text
    toks = _tokenize(text)
    if not toks:
        raise GrammarError(f"empty grammar in {src.origin}: no rules")
    # A rule starts at each ident immediately followed by '::='.
    starts = [
        i - 1 for i in range(1, len(toks)) if toks[i][0] == "define" and toks[i - 1][0] == "ident"
    ]
    if not starts or starts[0] != 0:
        raise _error("expected 'name ::=' at start of grammar", text, toks[0][2])
    rules = []
    for first, end in zip(starts, starts[1:] + [len(toks)]):
        _, (name,), at = toks[first]
        alts: list[list] = [[]]
        for kind, value, offset in toks[first + 2 : end]:
            if kind == "pipe":
                alts.append([])
            elif kind == "define":
                raise _error("unexpected '::='", text, offset)
            else:
                alts[-1].append(value)
        if not all(alts):
            raise _error(f'empty alternative in rule {name!r}; use "" for epsilon', text, at)
        rules.append((name, at, [tuple(chain.from_iterable(alt)) for alt in alts]))

    defined = {name for name, _, _ in rules}
    interned: dict[str, None] = {}  # nonterminals in first-appearance order
    for name, at, bodies in rules:
        interned[name] = None
        for body in bodies:
            for sym in body:
                if isinstance(sym, str):
                    if sym not in defined:
                        raise _error(f"reference to undefined rule {sym!r}", text, at)
                    interned[sym] = None
    return Cfg(
        nonterminals=tuple(interned),
        alphabet=frozenset(b"".join(value for kind, value, _ in toks if kind == "literal")),
        productions=tuple((name, body) for name, _, bodies in rules for body in bodies),
        start=rules[0][0],
    )


def _escape_bytes(data: bytes) -> str:
    return "".join(map(_RENDERED.__getitem__, data))


def render_grammar(g: Cfg) -> str:
    """Render a Cfg back into the grammar file format (round-trip safe)."""
    by_head: dict[str, list[tuple[int | str, ...]]] = {}
    order: list[str] = []
    for head, body in g.productions:
        if head not in by_head:
            by_head[head] = []
            order.append(head)
        by_head[head].append(body)
    # The start rule must come first to round-trip.
    if order and order[0] != g.start:
        order.remove(g.start)
        order.insert(0, g.start)
    lines = []
    for head in order:
        alts = []
        for body in by_head[head]:
            parts = []
            for is_byte, run in groupby(body, key=lambda sym: isinstance(sym, int)):
                parts.extend([f'"{_escape_bytes(bytes(run))}"'] if is_byte else run)
            alts.append(" ".join(parts) if parts else '""')
        lines.append(f"{head} ::= {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def _productive_set(productions) -> set[str]:
    """The heads that derive a terminal string, over a sequence of
    ``(head, body)`` pairs (read more than once)."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in productions:
            if head in productive:
                continue
            if all(isinstance(s, int) or s in productive for s in body):
                productive.add(head)
                changed = True
    return productive


def reachable(edges, roots) -> frozenset[str]:
    """The nonterminals reachable from ``roots`` (included) along ``edges``,
    a mapping from a nonterminal to its successors (none if absent)."""
    seen = set(roots)
    todo = list(seen)
    while todo:
        for m in edges.get(todo.pop(), ()):
            if m not in seen:
                seen.add(m)
                todo.append(m)
    return frozenset(seen)


def validate(g: Cfg) -> Cfg:
    """Drop unreachable and non-productive nonterminals; error on empty language.

    A nonterminal is productive iff it derives at least one terminal string
    (the empty string counts).  Idempotent.
    """
    productive = _productive_set(g.productions)
    if g.start not in productive:
        raise EmptyLanguageError(
            f"start symbol {g.start!r} derives no string: the language is empty"
        )
    edges: dict[str, list[str]] = {}
    for head, body in g.productions:
        if all(isinstance(s, int) or s in productive for s in body):
            edges.setdefault(head, []).extend(s for s in body if isinstance(s, str))
    keep = reachable(edges, (g.start,)) & productive
    nonterminals = tuple(nt for nt in g.nonterminals if nt in keep)
    productions = tuple(
        (h, body)
        for h, body in g.productions
        if h in keep and all(isinstance(s, int) or s in keep for s in body)
    )
    alphabet = frozenset(s for _, body in productions for s in body if isinstance(s, int))
    return Cfg(nonterminals=nonterminals, alphabet=alphabet, productions=productions, start=g.start)


def nullable_set(g: Cfg) -> frozenset[str]:
    """All nonterminals that derive the empty string (fixpoint)."""
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in g.productions:
            if head in nullable:
                continue
            if all(isinstance(s, str) and s in nullable for s in body):
                nullable.add(head)
                changed = True
    return frozenset(nullable)


# Epsilon elimination writes up to 2^k variants of a body with k nullable
# symbols; its callers refuse a body with more than this many first.
NULLABLE_LIMIT = 20


def check_nullable_bodies(productions, nullable, error: type[Exception]) -> None:
    """Raise ``error`` if a body holds more than NULLABLE_LIMIT nullable symbols."""
    for head, body in productions:
        count = sum(isinstance(s, str) and s in nullable for s in body)
        if count > NULLABLE_LIMIT:
            raise error(
                f"body of {head!r} has {count} nullable symbols; epsilon elimination would explode"
            )


def drop_epsilon(productions, nullable):
    """Epsilon elimination over ``(head, body)`` pairs: yields, one list
    per production and only when asked for, the non-empty variants of its
    body with some ``nullable`` symbols left out (by a bit mask counting
    up, so the whole body first) that were not yielded before."""
    seen: set[tuple[str, tuple[int | str, ...]]] = set()
    for head, body in productions:
        null_positions = [i for i, s in enumerate(body) if isinstance(s, str) and s in nullable]
        fresh = []
        for mask in range(1 << len(null_positions)):
            drop = {null_positions[k] for k in range(len(null_positions)) if mask >> k & 1}
            variant = tuple(s for i, s in enumerate(body) if i not in drop)
            if variant and (head, variant) not in seen:
                seen.add((head, variant))
                fresh.append((head, variant))
        yield fresh


def drop_units(productions, order) -> list[tuple[str, tuple[int | str, ...]]]:
    """Unit elimination over ``(head, body)`` pairs: each nonterminal of
    ``order`` in turn takes the non-unit bodies of itself, then of what it
    derives through unit bodies in the order found, each pair once."""
    unit_lists: dict[str, list[str]] = {nt: [nt] for nt in order}
    unit_sets: dict[str, set[str]] = {nt: {nt} for nt in order}
    changed = True
    while changed:
        changed = False
        for head, body in productions:
            if len(body) == 1 and isinstance(body[0], str):
                tgt = body[0]
                for a in order:
                    if head in unit_sets[a] and tgt not in unit_sets[a]:
                        unit_sets[a].add(tgt)
                        unit_lists[a].append(tgt)
                        changed = True
    bodies: dict[str, list[tuple[int | str, ...]]] = {}
    for head, body in productions:
        if len(body) != 1 or isinstance(body[0], int):
            bodies.setdefault(head, []).append(body)
    out: list[tuple[str, tuple[int | str, ...]]] = []
    seen: set[tuple[str, tuple[int | str, ...]]] = set()
    for a in order:
        for b in unit_lists[a]:
            for body in bodies.get(b, ()):
                if (a, body) not in seen:
                    seen.add((a, body))
                    out.append((a, body))
    return out


def derives_epsilon(g: Cfg, a: str) -> bool:
    """True iff nonterminal ``a`` derives the empty string."""
    if a not in g.nonterminals:
        raise GrammarError(f"unknown nonterminal {a!r}")
    return a in nullable_set(g)
