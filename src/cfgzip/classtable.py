"""Token equivalence classes, representatives, and the on-disk cache.

The class table is two vectors: ``c`` maps token ids to class ids and
``r`` maps class ids to representative token ids.  Tokens land in the
same class iff their displacement sets are equal; representatives are the
byte-shortest members (ties to the lowest id).  Special tokens such as
end-of-sequence are kept out of grammar classing entirely: each gets a
reserved singleton class flagged pass-through, whose mask bit belongs to
the engine, not the grammar.

Vocabulary files are one hex-encoded token per line (an empty line is the
empty token) with optional ``#special <id>`` headers; the first declared
special is treated as end-of-sequence.  The cache file is a flat
little-endian binary: magic, version, the two content digests, vector
lengths, ``c``, ``r``, the pass-through class ids, and a trailing CRC.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

CACHE_MAGIC = b"CZC1"
CACHE_VERSION = 1


class CacheError(ValueError):
    """Base for cache load/save failures."""


class CacheFormatError(CacheError):
    """Bad magic, truncated file, checksum mismatch, or an id out of range."""


class CacheVersionError(CacheError):
    """The cache was written by an incompatible format version."""


class StaleCacheError(CacheError):
    """The cache was built from a different grammar or vocabulary."""


@dataclass(frozen=True)
class Vocabulary:
    """An indexed token list plus the ids excluded from grammar classing."""

    tokens: tuple[bytes, ...]
    specials: frozenset[int] = frozenset()
    eos_id: int | None = None

    def __post_init__(self):
        for sid in self.specials:
            if not 0 <= sid < len(self.tokens):
                raise ValueError(f"special id {sid} out of range")
        if self.eos_id is not None and self.eos_id not in self.specials:
            raise ValueError("eos_id must be one of the declared specials")

    def __len__(self) -> int:
        return len(self.tokens)

    def render(self) -> str:
        lines = [f"#special {sid}" for sid in self._special_order()]
        lines.extend(t.hex() for t in self.tokens)
        return "\n".join(lines) + "\n"

    def _special_order(self) -> list[int]:
        if self.eos_id is None:
            return sorted(self.specials)
        return [self.eos_id] + sorted(self.specials - {self.eos_id})

    def digest(self) -> bytes:
        return hashlib.sha256(self.render().encode()).digest()


def parse_vocabulary(text: str) -> Vocabulary:
    """Parse the vocabulary file format (see module docstring)."""
    specials: list[int] = []
    tokens: list[bytes] = []
    lines = text.split("\n")
    if text.endswith("\n"):
        lines = lines[:-1]
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#special"):
            try:
                specials.append(int(line.split()[1]))
            except (IndexError, ValueError):
                raise ValueError(f"bad #special header on line {lineno}")
            continue
        if line.startswith("#"):
            continue
        try:
            tokens.append(bytes.fromhex(line.strip()))
        except ValueError:
            raise ValueError(f"bad hex token on line {lineno}: {line!r}")
    return Vocabulary(
        tokens=tuple(tokens),
        specials=frozenset(specials),
        eos_id=specials[0] if specials else None,
    )


def load_vocabulary(path) -> Vocabulary:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vocabulary(fh.read())


@dataclass(frozen=True)
class ClassTable:
    """The cached compression artifact: c, r, and identity metadata."""

    c: np.ndarray  # uint32, len |T|
    r: np.ndarray  # uint32, len |E|
    class_count: int
    grammar_digest: bytes
    vocab_digest: bytes
    passthrough: frozenset[int] = frozenset()

    def __post_init__(self):
        if len(self.r) != self.class_count:
            raise ValueError("r length disagrees with class_count")
        if len(self.c) and int(self.c.max()) >= self.class_count:
            raise ValueError("class id out of range in c")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassTable):
            return NotImplemented
        return (
            self.class_count == other.class_count
            and self.grammar_digest == other.grammar_digest
            and self.vocab_digest == other.vocab_digest
            and self.passthrough == other.passthrough
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.r, other.r)
        )

    __hash__ = None

    @property
    def token_count(self) -> int:
        return len(self.c)

    def compression_ratio(self) -> float:
        return self.token_count / self.class_count if self.class_count else float("inf")

    def class_members(self) -> list[list[int]]:
        members: list[list[int]] = [[] for _ in range(self.class_count)]
        for tid, cid in enumerate(self.c):
            members[int(cid)].append(tid)
        return members


def build_class_table(
    vocab: Vocabulary,
    disps,
    grammar_digest: bytes = b"\x00" * 32,
    vocab_digest: bytes | None = None,
) -> ClassTable:
    """Group tokens into classes by displacement equality.

    ``disps[i]`` is token i's Displacement, or None when the search gave
    up on it (budget): such tokens get singleton classes keyed on their
    bytes, so duplicates still share and losslessness is preserved by the
    engine checking them individually.  Tokens are grouped on
    ``Displacement.key``, which needs no decoding, so the displacements
    must all come from one grammar.  Class ids run in order of first
    occurrence by token id; representatives are byte-shortest, ties to the
    lowest id.
    """
    if len(disps) != len(vocab.tokens):
        raise ValueError("one displacement per token required")
    if vocab_digest is None:
        vocab_digest = vocab.digest()

    c = np.zeros(len(vocab.tokens), dtype=np.uint32)
    rep: list[int] = []
    passthrough: set[int] = set()
    by_key: dict[object, int] = {}

    for tid, token in enumerate(vocab.tokens):
        if tid in vocab.specials:
            cid = len(rep)
            rep.append(tid)
            passthrough.add(cid)
            c[tid] = cid
            continue
        d = disps[tid]
        key = ("fallback", token) if d is None else d.key
        cid = by_key.get(key)
        if cid is None:
            cid = len(rep)
            by_key[key] = cid
            rep.append(tid)
        else:
            cur = rep[cid]
            if (len(token), tid) < (len(vocab.tokens[cur]), cur):
                rep[cid] = tid
        c[tid] = cid

    return ClassTable(
        c=c,
        r=np.asarray(rep, dtype=np.uint32),
        class_count=len(rep),
        grammar_digest=grammar_digest,
        vocab_digest=vocab_digest,
        passthrough=frozenset(passthrough),
    )


_HEADER = struct.Struct("<4sI32s32sIII")


def save_cache(tbl: ClassTable, path) -> None:
    """Write the flat binary cache: header, c, r, pass-through ids, CRC."""
    body = bytearray()
    body += _HEADER.pack(
        CACHE_MAGIC,
        CACHE_VERSION,
        tbl.grammar_digest,
        tbl.vocab_digest,
        tbl.token_count,
        tbl.class_count,
        len(tbl.passthrough),
    )
    body += tbl.c.astype("<u4").tobytes()
    body += tbl.r.astype("<u4").tobytes()
    body += np.asarray(sorted(tbl.passthrough), dtype="<u4").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)))
    with open(path, "wb") as fh:
        fh.write(bytes(body))


def load_cache(
    path,
    grammar_digest: bytes | None = None,
    vocab_digest: bytes | None = None,
) -> ClassTable:
    """Read a cache file back, verifying structure and (optionally) identity.

    Digest arguments, when given, must match what the cache was built
    from; a mismatch raises StaleCacheError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size + 4:
        raise CacheFormatError("cache file truncated")
    crc_stored = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != crc_stored:
        raise CacheFormatError("cache checksum mismatch (corrupt or truncated file)")
    magic, version, gdig, vdig, t_count, e_count, p_count = _HEADER.unpack_from(data, 0)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"bad cache magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheVersionError(f"cache version {version} unsupported (want {CACHE_VERSION})")
    expected = _HEADER.size + 4 * (t_count + e_count + p_count) + 4
    if len(data) != expected:
        raise CacheFormatError(f"cache length {len(data)} != expected {expected}")
    if grammar_digest is not None and grammar_digest != gdig:
        raise StaleCacheError("cache built from a different grammar (digest mismatch)")
    if vocab_digest is not None and vocab_digest != vdig:
        raise StaleCacheError("cache built from a different vocabulary (digest mismatch)")
    off = _HEADER.size
    c = np.frombuffer(data, dtype="<u4", count=t_count, offset=off).copy()
    off += 4 * t_count
    r = np.frombuffer(data, dtype="<u4", count=e_count, offset=off).copy()
    off += 4 * e_count
    pt = np.frombuffer(data, dtype="<u4", count=p_count, offset=off)
    # A valid checksum does not make the ids valid, and the engine indexes with them.
    for name, ids, bound in (("c", c, e_count), ("r", r, t_count), ("pass-through", pt, e_count)):
        if np.any(ids >= bound):
            raise CacheFormatError(f"{name} holds an id out of range (want < {bound})")
    return ClassTable(
        c=c,
        r=r,
        class_count=e_count,
        grammar_digest=gdig,
        vocab_digest=vdig,
        passthrough=frozenset(int(x) for x in pt),
    )


def apply_mask(logits, class_mask, tbl: ClassTable):
    """Gather-then-mask: block token i unless its class bit is set.

    Pure elementwise semantics (the GPU-parallel form is identical):
    ``out[i] = logits[i] if class_mask[c[i]] else -inf``.
    """
    logits = np.asarray(logits, dtype=np.float64)
    class_mask = np.asarray(class_mask, dtype=bool)
    if len(logits) != tbl.token_count:
        raise ValueError(f"logits length {len(logits)} != token count {tbl.token_count}")
    if len(class_mask) != tbl.class_count:
        raise ValueError(f"mask length {len(class_mask)} != class count {tbl.class_count}")
    return np.where(class_mask[tbl.c], logits, -np.inf)


def expand_class_mask(class_mask, tbl: ClassTable) -> np.ndarray:
    """Expand a class-vocabulary bit mask to the full token vocabulary."""
    class_mask = np.asarray(class_mask, dtype=bool)
    if len(class_mask) != tbl.class_count:
        raise ValueError(f"mask length {len(class_mask)} != class count {tbl.class_count}")
    return class_mask[tbl.c]


def map_token(token_id: int, tbl: ClassTable) -> int:
    """The representative the engine should see instead of ``token_id``."""
    if not 0 <= token_id < tbl.token_count:
        raise IndexError(f"token id {token_id} out of range")
    return int(tbl.r[tbl.c[token_id]])
