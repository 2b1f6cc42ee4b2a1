"""Context-free grammar data model, file format parsing, and validation.

Grammar file format (UTF-8 text):

    # comment
    root ::= "(" root ")" root | ""
    other ::= root "x" | other_rule

One rule per ``name ::= alt1 | alt2 | ...``; a rule ends where the next
``name ::=`` begins, so rules may span lines.  An alternative is a
whitespace-separated sequence of quoted byte-string literals and rule
names; ``""`` denotes epsilon.  Literals denote the bytes of their UTF-8
encoding after escape processing (``\\"``, ``\\\\``, ``\\n``, ``\\t``,
``\\xHH``).  The first rule is the start symbol.

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


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_'\-]*")

_ESCAPES = {"n": 0x0A, "t": 0x09, '"': 0x22, "\\": 0x5C}


@dataclass
class _Token:
    kind: str  # "ident", "define", "pipe", "literal"
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("::=", i):
            out.append(_Token("define", "::=", line, col))
            i += 3
            col += 3
        elif ch == "|":
            out.append(_Token("pipe", "|", line, col))
            i += 1
            col += 1
        elif ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            data = bytearray()
            while True:
                if i >= n or text[i] == "\n":
                    raise GrammarError("unterminated string literal", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise GrammarError("dangling escape", line, col)
                    esc = text[i + 1]
                    if esc in _ESCAPES:
                        data.append(_ESCAPES[esc])
                        i += 2
                        col += 2
                    elif esc == "x":
                        hexpart = text[i + 2 : i + 4]
                        if len(hexpart) != 2 or not re.fullmatch(r"[0-9a-fA-F]{2}", hexpart):
                            raise GrammarError("bad \\xHH escape", line, col)
                        data.append(int(hexpart, 16))
                        i += 4
                        col += 4
                    else:
                        raise GrammarError(f"unknown escape \\{esc}", line, col)
                else:
                    data.extend(c.encode("utf-8"))
                    i += 1
                    col += 1
            out.append(_Token("literal", bytes(data), start_line, start_col))
        else:
            m = _IDENT.match(text, i)
            if not m:
                raise GrammarError(f"unexpected character {ch!r}", line, col)
            out.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
    return out


def parse_grammar(src: GrammarSource | str) -> Cfg:
    """Parse grammar text into a Cfg, preserving rule and alternative order."""
    if isinstance(src, str):
        src = GrammarSource(src)
    toks = _tokenize(src.text)
    if not toks:
        raise GrammarError(f"empty grammar in {src.origin}: no rules")

    # A rule boundary is an ident immediately followed by '::='.
    rules: list[tuple[str, list[list[int | str]], _Token]] = []
    i = 0
    if not (toks[0].kind == "ident" and len(toks) > 1 and toks[1].kind == "define"):
        t = toks[0]
        raise GrammarError("expected 'name ::=' at start of grammar", t.line, t.col)
    while i < len(toks):
        name_tok = toks[i]
        if name_tok.kind != "ident" or i + 1 >= len(toks) or toks[i + 1].kind != "define":
            raise GrammarError("expected 'name ::='", name_tok.line, name_tok.col)
        i += 2
        alts: list[list[int | str]] = [[]]
        saw_epsilon_literal = [False]
        while i < len(toks):
            t = toks[i]
            if t.kind == "ident" and i + 1 < len(toks) and toks[i + 1].kind == "define":
                break  # next rule
            if t.kind == "pipe":
                alts.append([])
                saw_epsilon_literal.append(False)
            elif t.kind == "ident":
                alts[-1].append(t.value)
            elif t.kind == "literal":
                if t.value == b"":
                    saw_epsilon_literal[-1] = True
                alts[-1].extend(t.value)
            else:
                raise GrammarError("unexpected '::='", t.line, t.col)
            i += 1
        for alt, saw_eps in zip(alts, saw_epsilon_literal):
            if not alt and not saw_eps:
                raise GrammarError(
                    f"empty alternative in rule {name_tok.value!r}; use \"\" for epsilon",
                    name_tok.line,
                    name_tok.col,
                )
        rules.append((name_tok.value, alts, name_tok))

    defined = {name for name, _, _ in rules}
    nonterminals: list[str] = []
    for name, alts, tok in rules:
        if name not in nonterminals:
            nonterminals.append(name)
        for alt in alts:
            for sym in alt:
                if isinstance(sym, str):
                    if sym not in defined:
                        raise GrammarError(f"reference to undefined rule {sym!r}", tok.line, tok.col)
                    if sym not in nonterminals:
                        nonterminals.append(sym)

    productions = []
    alphabet: set[int] = set()
    for name, alts, _ in rules:
        for alt in alts:
            productions.append((name, tuple(alt)))
            alphabet.update(s for s in alt if isinstance(s, int))

    return Cfg(
        nonterminals=tuple(nonterminals),
        alphabet=frozenset(alphabet),
        productions=tuple(productions),
        start=rules[0][0],
    )


def _escape_bytes(data: bytes) -> str:
    out = []
    for b in data:
        if b == 0x22:
            out.append('\\"')
        elif b == 0x5C:
            out.append("\\\\")
        elif b == 0x0A:
            out.append("\\n")
        elif b == 0x09:
            out.append("\\t")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


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
            run: list[int] = []
            for sym in body:
                if isinstance(sym, int):
                    run.append(sym)
                else:
                    if run:
                        parts.append(f'"{_escape_bytes(bytes(run))}"')
                        run = []
                    parts.append(sym)
            if run:
                parts.append(f'"{_escape_bytes(bytes(run))}"')
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
