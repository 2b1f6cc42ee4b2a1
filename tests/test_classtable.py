"""Class table construction, cache serialization, and the gather-mask."""

import numpy as np
import pytest

from cfgzip import (
    CacheFormatError,
    CacheVersionError,
    ClassTable,
    StaleCacheError,
    Vocabulary,
    apply_mask,
    build_class_table,
    build_stack_adjacency,
    compute_all_displacements,
    expand_class_mask,
    load_cache,
    map_token,
    parse_grammar,
    parse_vocabulary,
    save_cache,
    to_gnf,
    validate,
)

from conftest import rewrite_cache_id, suite_grammar, suite_vocabulary


def small_table(name="dyck1", vocab=None):
    g = suite_grammar(name)
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    vocab = vocab or suite_vocabulary(name, long_tokens=10)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    return vocab, build_class_table(vocab, sweep.displacements)


def test_dead_token_isolated():
    g = validate(parse_grammar('root ::= "a"'))
    gnf = to_gnf(g)
    vocab = Vocabulary(tokens=(b"a", b"b", b"aa"))
    raw = compute_all_displacements(vocab.tokens, gnf, None)
    tbl = build_class_table(vocab, raw.displacements)
    # Raw sweep: "b" sits alone in the dead class ("aa" still has the
    # hypothetical two-symbol input stack), and dead means always maskable.
    assert frozenset(raw.displacements[1].pairs) == frozenset()
    assert frozenset(raw.displacements[2].pairs) == frozenset({(("root", "root"), ())})
    assert len({int(x) for x in tbl.c}) == 3
    # Pruned sweep: the unrealizable stack is cut and "aa" joins the dead
    # class; both groupings are lossless, the pruned one is just coarser.
    adj = build_stack_adjacency(gnf)
    pruned = compute_all_displacements(vocab.tokens, gnf, adj)
    tbl2 = build_class_table(vocab, pruned.displacements)
    assert tbl2.c[1] == tbl2.c[2]
    assert int(tbl2.r[tbl2.c[1]]) == 1  # byte-shortest dead token


def test_byte_identical_tokens_share_class_lowest_id_rep():
    vocab, tbl = small_table()
    tokens = vocab.tokens
    first_open = tokens.index(b"(")
    dup = len(tokens) - 2  # conftest appends a duplicate of the first byte
    assert tokens[dup] == b"("
    assert tbl.c[first_open] == tbl.c[dup]
    assert int(tbl.r[tbl.c[dup]]) == first_open


def test_representative_self_map_and_minimality():
    vocab, tbl = small_table("dyck2")
    for k in range(tbl.class_count):
        rid = int(tbl.r[k])
        assert int(tbl.c[rid]) == k
    for tid, cid in enumerate(tbl.c):
        assert len(vocab.tokens[int(tbl.r[cid])]) <= len(vocab.tokens[tid])


def test_partition_over_non_specials():
    vocab, tbl = small_table("arith")
    members = tbl.class_members()
    assert sum(len(m) for m in members) == len(vocab)
    for sid in vocab.specials:
        assert len(members[int(tbl.c[sid])]) == 1
        assert int(tbl.c[sid]) in tbl.passthrough


def test_class_ids_in_first_occurrence_order():
    vocab, tbl = small_table()
    seen = set()
    next_expected = 0
    for cid in tbl.c:
        if int(cid) not in seen:
            assert int(cid) == next_expected
            seen.add(int(cid))
            next_expected += 1


def test_epsilon_token_has_dedicated_class():
    vocab, tbl = small_table()
    eps_id = vocab.tokens.index(b"")
    members = tbl.class_members()[int(tbl.c[eps_id])]
    assert all(vocab.tokens[m] == b"" for m in members)


def test_fallback_tokens_get_singletons_by_bytes():
    vocab = Vocabulary(tokens=(b"a", b"b", b"a"))
    disps = [None, None, None]
    tbl = build_class_table(vocab, disps)
    assert tbl.class_count == 2
    assert tbl.c[0] == tbl.c[2]
    assert tbl.c[0] != tbl.c[1]


def test_identifier_fragments_collapse_to_one_representative():
    # Letter-content tokens inside string literals are interchangeable:
    # every two-letter fragment maps to the same representative.
    vocab, tbl = small_table("json_mini", vocab=suite_vocabulary("json_mini", long_tokens=0))
    ids = [vocab.tokens.index(w) for w in (b"aa", b"ab", b"ba", b"bb")]
    classes = {int(tbl.c[i]) for i in ids}
    assert len(classes) == 1
    reps = {map_token(i, tbl) for i in ids}
    assert len(reps) == 1


def test_roundtrip_cache(tmp_path):
    vocab, tbl = small_table()
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    again = load_cache(path)
    assert again == tbl


def test_cache_determinism(tmp_path):
    _, tbl1 = small_table()
    _, tbl2 = small_table()
    p1, p2 = tmp_path / "a.czc", tmp_path / "b.czc"
    save_cache(tbl1, p1)
    save_cache(tbl2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_stale_cache_on_digest_mismatch(tmp_path):
    vocab, tbl = small_table()
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    load_cache(path, vocab_digest=tbl.vocab_digest)  # matching is fine
    with pytest.raises(StaleCacheError, match="vocabulary"):
        load_cache(path, vocab_digest=b"\x01" * 32)
    with pytest.raises(StaleCacheError, match="grammar"):
        load_cache(path, grammar_digest=b"\x01" * 32)


def test_corrupt_cache_checksum(tmp_path):
    vocab, tbl = small_table()
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01  # flip one bit of c
    path.write_bytes(bytes(data))
    with pytest.raises(CacheFormatError, match="checksum"):
        load_cache(path)


def test_truncated_cache(tmp_path):
    vocab, tbl = small_table()
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(CacheFormatError):
        load_cache(path)


@pytest.mark.parametrize("field", ["c", "r", "passthrough"])
def test_out_of_range_id_with_valid_checksum(tmp_path, field):
    vocab, tbl = small_table()
    assert tbl.passthrough
    bound = tbl.token_count if field == "r" else tbl.class_count
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    rewrite_cache_id(path, field, bound - 1)
    load_cache(path)  # the largest valid id loads
    rewrite_cache_id(path, field, bound)
    with pytest.raises(CacheFormatError, match="out of range"):
        load_cache(path)


def test_version_mismatch(tmp_path):
    vocab, tbl = small_table()
    path = tmp_path / "t.czc"
    save_cache(tbl, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # version field
    import zlib, struct

    data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
    path.write_bytes(bytes(data))
    with pytest.raises(CacheVersionError):
        load_cache(path)


def test_cache_size_at_large_scale(tmp_path):
    # 128256 tokens over 3095 classes must serialize under one megabyte.
    t_count, e_count = 128256, 3095
    c = np.arange(t_count, dtype=np.uint32) % e_count
    r = np.arange(e_count, dtype=np.uint32)
    tbl = ClassTable(
        c=c,
        r=r,
        class_count=e_count,
        grammar_digest=b"\x00" * 32,
        vocab_digest=b"\x00" * 32,
    )
    path = tmp_path / "big.czc"
    save_cache(tbl, path)
    assert path.stat().st_size <= 1 << 20
    assert load_cache(path) == tbl


def test_apply_mask_identity_and_block():
    vocab, tbl = small_table()
    logits = np.linspace(-2.0, 2.0, len(vocab))
    all_on = np.ones(tbl.class_count, dtype=bool)
    assert np.array_equal(apply_mask(logits, all_on, tbl), logits)
    all_off = np.zeros(tbl.class_count, dtype=bool)
    assert np.all(np.isneginf(apply_mask(logits, all_off, tbl)))


def test_apply_mask_single_class():
    vocab, tbl = small_table()
    logits = np.zeros(len(vocab))
    k = int(tbl.c[vocab.tokens.index(b"(")])
    mask = np.zeros(tbl.class_count, dtype=bool)
    mask[k] = True
    out = apply_mask(logits, mask, tbl)
    survivors = set(np.flatnonzero(~np.isneginf(out)).tolist())
    assert survivors == set(tbl.class_members()[k])


def test_apply_mask_length_errors():
    vocab, tbl = small_table()
    with pytest.raises(ValueError, match="logits length"):
        apply_mask(np.zeros(3), np.ones(tbl.class_count, dtype=bool), tbl)
    with pytest.raises(ValueError, match="mask length"):
        apply_mask(np.zeros(len(vocab)), np.ones(3, dtype=bool), tbl)


def test_expand_class_mask_matches_apply():
    vocab, tbl = small_table()
    rng = np.random.default_rng(0)
    mask = rng.random(tbl.class_count) < 0.5
    expanded = expand_class_mask(mask, tbl)
    out = apply_mask(np.zeros(len(vocab)), mask, tbl)
    assert np.array_equal(expanded, ~np.isneginf(out))


def test_map_token_contract():
    vocab, tbl = small_table()
    for k in range(tbl.class_count):
        rid = int(tbl.r[k])
        assert map_token(rid, tbl) == rid
    with pytest.raises(IndexError):
        map_token(len(vocab), tbl)
    with pytest.raises(IndexError):
        map_token(-1, tbl)


def test_vocabulary_file_roundtrip():
    vocab = suite_vocabulary("dyck1", long_tokens=3)
    again = parse_vocabulary(vocab.render())
    assert again == vocab
    assert again.eos_id == vocab.eos_id


def test_vocabulary_empty_line_is_empty_token():
    v = parse_vocabulary("28\n\n29\n")
    assert v.tokens == (b"(", b"", b")")


def test_vocabulary_bad_hex():
    with pytest.raises(ValueError, match="line 2"):
        parse_vocabulary("28\nzz\n")


def test_vocabulary_special_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        parse_vocabulary("#special 5\n28\n")
