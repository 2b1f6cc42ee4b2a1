"""Seeded input generators for the benchmark.

Everything here is a pure function of its arguments (randomness comes
from a private ``random.Random`` seeded from them), so the same seed
always yields byte-identical grammar text, vocabularies and target
documents.  The program under test only ever sees what these functions
return.
"""

from __future__ import annotations

import json
import random
from collections import Counter

EOS = b"<|end|>"

# ---------------------------------------------------------------------------
# Grammars


def _lit(data: bytes) -> str:
    """A grammar-file literal for ``data`` (escapes as in the file format)."""
    out = []
    for b in data:
        if b == 0x22:
            out.append('\\"')
        elif b == 0x5C:
            out.append("\\\\")
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return '"' + "".join(out) + '"'


def _alts(chars) -> str:
    return " | ".join(_lit(bytes([c])) for c in chars)


def json_grammar() -> str:
    """The full JSON grammar (RFC 8259, ASCII strings) with per-character
    alternatives, escapes including ``\\uXXXX``, signed numbers with
    fraction and exponent, and whitespace.  The same text for every seed.
    """
    plain = [c for c in range(0x20, 0x7F) if c not in (0x22, 0x5C)]
    hexdigits = b"0123456789abcdefABCDEF"
    escapes = b'"\\/bfnrt'
    ws_alts = " | ".join(_lit(bytes([c])) + " ws" for c in b" \n\r\t")
    rules = [
        "root ::= ws value ws",
        'value ::= object | array | string | number | "true" | "false" | "null"',
        'object ::= "{" ws "}" | "{" members "}"',
        'members ::= member | member "," members',
        'member ::= ws string ws ":" ws value ws',
        'array ::= "[" ws "]" | "[" elements "]"',
        'elements ::= element | element "," elements',
        "element ::= ws value ws",
        'string ::= "\\"" chars "\\""',
        'chars ::= "" | char chars',
        f'char ::= {_alts(plain)} | "\\\\" escape',
        f'escape ::= {_alts(escapes)} | "u" hex hex hex hex',
        f"hex ::= {_alts(hexdigits)}",
        "number ::= integer fraction exponent",
        'integer ::= digit | onenine digits | "-" digit | "-" onenine digits',
        "digits ::= digit | digit digits",
        'digit ::= "0" | onenine',
        f"onenine ::= {_alts(b'123456789')}",
        'fraction ::= "" | "." digits',
        'exponent ::= "" | "E" sign digits | "e" sign digits',
        'sign ::= "" | "+" | "-"',
        f'ws ::= "" | {ws_alts}',
    ]
    return "\n".join(rules) + "\n"


_EXPR_LETTERS = b"abcdefghijklmnopqrstuvwxyz"
_EXPR_DIGITS = b"0123456789"


def expr_alphabet(seed: int | str) -> tuple[bytes, bytes]:
    """The identifier letters and number digits of one expression-grammar
    draw: two of each, so the grammar's shape never changes with the seed."""
    rng = random.Random(f"expr-alphabet:{seed}")
    return bytes(rng.sample(_EXPR_LETTERS, 2)), bytes(rng.sample(_EXPR_DIGITS, 2))


def expr_grammar(seed: int | str) -> str:
    """A C-like expression grammar: three left-recursive binary precedence
    levels, prefix unary operators, and postfix call and index forms.

    Paull's back-substitution turns its 32 productions into about 7.3k GNF
    productions.  Each further left-recursive level or operator multiplies
    the GNF (a fourth level, or a left-recursive postfix, passes 20k) and
    the sweep with it, so do not add one.  Only the identifier letters and
    digits depend on ``seed``, so every draw has the same shape.
    """
    letters, digits = expr_alphabet(seed)
    rules = [
        'expr ::= expr "<" sum | expr "=" sum | sum',
        'sum ::= sum "+" term | sum "-" term | term',
        'term ::= term "*" unary | term "/" unary | unary',
        'unary ::= "-" unary | "!" unary | postfix',
        "postfix ::= primary | primary suffixes",
        "suffixes ::= suffix | suffix suffixes",
        'suffix ::= "(" args ")" | "(" ")" | "[" expr "]"',
        'args ::= expr | expr "," args',
        'primary ::= name | num | "(" expr ")"',
        "name ::= letter | letter name",
        "num ::= digit | digit num",
        f"letter ::= {_alts(letters)}",
        f"digit ::= {_alts(digits)}",
    ]
    return "\n".join(rules) + "\n"


def expr_vocabulary(seed: int | str):
    """Every 1- and 2-byte string over the draw's alphabet, in seeded
    order, then EOS.  Returns (tokens, eos_id)."""
    letters, digits = expr_alphabet(seed)
    alphabet = sorted(set(letters + digits + b"<=+-*/!()[],"))
    tokens = [bytes([a]) for a in alphabet] + [bytes([a, b]) for a in alphabet for b in alphabet]
    random.Random(f"expr-vocab:{seed}").shuffle(tokens)
    return tokens + [EOS], len(tokens)


def expr_docs(seed: int | str, n: int, lo: int = 20, hi: int = 60) -> list[bytes]:
    """Expressions of ``lo``..``hi`` bytes in the language of
    ``expr_grammar(seed)``."""
    letters, digits = expr_alphabet(seed)
    rng = random.Random(f"expr-docs:{seed}")

    def primary(depth: int) -> bytes:
        r = rng.random()
        if r < 0.45 or depth > 2:
            return bytes(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        if r < 0.75:
            return bytes(rng.choice(digits) for _ in range(rng.randint(1, 3)))
        return b"(" + expr(depth + 1) + b")"

    def operand(depth: int) -> bytes:
        out = rng.choice([b"", b"", b"", b"-", b"!"]) + primary(depth)
        while depth <= 2 and rng.random() < 0.25:
            r = rng.random()
            if r < 0.3:
                out += b"()"
            elif r < 0.65:
                args = [expr(depth + 1) for _ in range(rng.randint(1, 2))]
                out += b"(" + b",".join(args) + b")"
            else:
                out += b"[" + expr(depth + 1) + b"]"
        return out

    def expr(depth: int) -> bytes:
        out = operand(depth)
        for _ in range(rng.randint(0, 3 - min(depth, 2))):
            out += bytes([rng.choice(b"<=+-*/")]) + operand(depth)
        return out

    docs = []
    while len(docs) < n:
        doc = expr(0)
        if lo <= len(doc) <= hi:
            docs.append(doc)
    return docs


# ---------------------------------------------------------------------------
# JSON documents

_WORDS = (
    "the of and to in is it that for on with as was at by be this from or have an they "
    "which one you were all we when there can been has more if no out do so what up about "
    "time into only new some could them other than then now look only come its over think "
    "also back after use two how our work first well way even because any these give day "
    "most us city weather file path query user name value list item order price total "
    "count date start end status error message result search report update create delete "
    "open close read write send email note title body text summary content data table"
).split()

_FUNCS = (
    "get_weather search_web read_file write_file send_email create_event lookup_user "
    "list_orders get_price run_query translate_text summarize"
).split()

_KEYS = (
    "city query path user_id limit units lang date to subject text id count page "
    "verbose format timeout start end"
).split()


def _json_string(rng: random.Random, words: int) -> str:
    s = " ".join(rng.choice(_WORDS) for _ in range(words))
    r = rng.random()
    if r < 0.08:
        s += "\n" + rng.choice(_WORDS)
    elif r < 0.14:
        s = f'"{s}"'
    elif r < 0.18:
        s += " café"
    return s


def _json_scalar(rng: random.Random):
    r = rng.random()
    if r < 0.45:
        return _json_string(rng, rng.randint(1, 2))
    if r < 0.7:
        return rng.randint(-50, 5000)
    if r < 0.8:
        return round(rng.uniform(-100, 100), rng.randint(1, 3))
    if r < 0.85:
        return float(f"{rng.randint(1, 9)}.{rng.randint(0, 99)}e{rng.randint(-9, 9)}")
    if r < 0.93:
        return rng.random() < 0.5
    return None


def _dump(obj) -> bytes:
    # ensure_ascii keeps every string inside the grammar's ASCII alphabet;
    # non-ASCII text turns into \uXXXX escapes.
    return json.dumps(obj, ensure_ascii=True).encode()


def _mixed_call(rng: random.Random) -> bytes:
    """A tool call with 1-3 arguments of any JSON type (corpus text)."""
    while True:
        args = {}
        for key in rng.sample(_KEYS, rng.randint(1, 3)):
            args[key] = [_json_scalar(rng), _json_scalar(rng)] if rng.random() < 0.1 else _json_scalar(rng)
        doc = _dump({"name": rng.choice(_FUNCS), "arguments": args})
        if 40 <= len(doc) <= 100:
            return doc


def toolcall_doc(rng: random.Random) -> bytes:
    """A tool call of 40-100 bytes with three short string arguments.

    Every target has the same shape so that each run sees the same mix of
    cheap steps (between strings) and dear ones (inside strings): with
    mixed argument types the share of dear steps wanders around one half
    from seed to seed, and the median mask time jumps between the two.
    """
    while True:
        args = {key: _json_string(rng, rng.randint(1, 2)) for key in rng.sample(_KEYS, 3)}
        doc = _dump({"name": rng.choice(_FUNCS), "arguments": args})
        if 40 <= len(doc) <= 100:
            return doc


def longtext_doc(rng: random.Random, length: int = 320) -> bytes:
    """A tool call whose ``text`` field is ``length`` bytes of words, so
    decoding spends most steps deep inside one string.  The fixed length
    gives every target the same curve of mask time over bytes emitted."""
    words = []
    while len(" ".join(words)) < length:
        words.append(rng.choice(_WORDS))
    text = " ".join(words)[:length]
    return _dump({"name": "write_file", "arguments": {"path": _json_string(rng, 1), "text": text}})


def toolcall_docs(seed: int, n: int) -> list[bytes]:
    rng = random.Random(f"toolcall:{seed}")
    return [toolcall_doc(rng) for _ in range(n)]


def longtext_docs(seed: int, n: int) -> list[bytes]:
    rng = random.Random(f"longtext:{seed}")
    return [longtext_doc(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# BPE-like vocabulary


def substring_pool(size: int, corpus_docs: int = 1500) -> list[bytes]:
    """The ``size`` most frequent 2-10-byte substrings of a fixed corpus of
    tool calls (one in ten a long text), most frequent first, ties by
    bytes.  Like BPE merges, frequent substrings share prefixes and
    suffixes.  Counting one length at a time keeps the peak memory below
    that of a compile."""
    rng = random.Random("corpus")
    corpus = [longtext_doc(rng, 160) if i % 10 == 0 else _mixed_call(rng) for i in range(corpus_docs)]
    ranked: list[tuple[int, bytes]] = []
    for length in range(2, 11):
        counts = Counter(doc[j : j + length] for doc in corpus for j in range(len(doc) - length + 1))
        ranked.extend((-n, sub) for sub, n in counts.most_common(size))
        del counts
    ranked.sort()
    return [sub for _, sub in ranked[:size]]


def bpe_vocabularies(pool: list[bytes], size: int, draws: int, seed: int):
    """``draws`` disjoint vocabularies of ``size`` tokens each: all 256
    single bytes, ``size - 257`` pool substrings, then EOS.

    The pool is cut into strata of ``draws`` consecutive ranks and a fixed
    deal gives each draw one of every stratum, so no substring is
    compiled twice in a run (a cache kept across compiles cannot fake a
    gain).  The deal does not depend on ``seed``: draws dealt by the seed
    differed by up to 7% in class count, and every JSON time with it.
    ``seed`` orders each draw's substrings, so it sets the token ids.
    Returns [(tokens, eos_id)].
    """
    k = size - 257
    if k * draws > len(pool):
        raise ValueError(f"pool of {len(pool)} cannot fill {draws} draws of {size} tokens")
    deal = random.Random("bpe-draws")
    picks: list[list[bytes]] = [[] for _ in range(draws)]
    for j in range(k):
        for i, offset in enumerate(deal.sample(range(draws), draws)):
            picks[i].append(pool[j * draws + offset])
    order = random.Random(f"bpe-order:{seed}")
    out = []
    for picked in picks:
        order.shuffle(picked)
        tokens = [bytes([b]) for b in range(256)] + picked + [EOS]
        out.append((tokens, len(tokens) - 1))
    return out


def greedy_tokenize(text: bytes, tokens) -> list[int]:
    """Greedy longest-match tokenization against ``tokens`` (first id wins
    among duplicates).  Every single byte must be a token."""
    index: dict[bytes, int] = {}
    for tid, tok in enumerate(tokens):
        if tok != EOS:
            index.setdefault(tok, tid)
    longest = max(len(t) for t in tokens)
    ids = []
    pos = 0
    while pos < len(text):
        for length in range(min(longest, len(text) - pos), 0, -1):
            tid = index.get(text[pos : pos + length])
            if tid is not None:
                ids.append(tid)
                pos += length
                break
        else:
            raise ValueError(f"byte {text[pos]:#x} at {pos} is not a token")
    return ids
