"""The incremental recognizer and its two mask paths."""

import hashlib
import itertools
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgzip import (
    ClassTable,
    EmptyLanguageError,
    FuzzConfig,
    GnfSizeError,
    GrammarError,
    MaskedTokenError,
    Vocabulary,
    build_class_table,
    build_stack_adjacency,
    commit_token,
    compute_all_displacements,
    compute_mask_compressed,
    compute_mask_naive,
    expand_class_mask,
    fuzz_decode,
    new_state,
    oracle_membership,
    oracle_prefix,
    parse_grammar,
    to_gnf,
    try_advance,
    validate,
)

from conftest import (
    GRAMMARS,
    SHAPES,
    carried_items,
    counting_closes,
    earley_item_sets,
    random_grammars,
    suite_grammar,
    suite_vocabulary,
)


def pipeline(name, vocab=None):
    g = suite_grammar(name)
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    vocab = vocab or suite_vocabulary(name, long_tokens=10)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    return g, vocab, build_class_table(vocab, sweep.displacements)


def test_new_state_complete_flags():
    assert new_state(suite_grammar("dyck1")).complete is True  # epsilon is a word
    assert new_state(validate(parse_grammar('root ::= "a"'))).complete is False
    s = new_state(suite_grammar("arith"))
    assert s.consumed == 0 and s.complete is False


def test_new_state_empty_language():
    with pytest.raises(EmptyLanguageError):
        new_state(parse_grammar("root ::= root"))


def test_try_advance_dyck_basics():
    g = suite_grammar("dyck1")
    s = new_state(g)
    s1 = try_advance(s, b"(")
    assert s1 is not None and s1.complete is False
    assert try_advance(s, b")") is None
    s2 = try_advance(s1, b")")
    assert s2 is not None and s2.complete is True
    assert oracle_membership(g, b"()") is True
    # The original state is untouched (persistent).
    assert s.consumed == 0 and s1.consumed == 1


def test_try_advance_empty_bytes_is_noop():
    s = new_state(suite_grammar("dyck1"))
    assert try_advance(s, b"") is s


# Nullable symbols at the start of bodies, nested: prediction runs through
# them, and the start symbol is complete at zero width.
NULLABLE_LEAD = """
root ::= opt alt "a" root | items
opt ::= "" | "b"
alt ::= opt | "c" opt
items ::= item items | ""
item ::= opt opt "d"
"""


# Right recursion that Leo chains shortcut: a run of "a"s, then a nullable
# right-recursive tail.
RIGHT_REC = """
root ::= "a" root | "b" tail
tail ::= "" | "c" tail
"""

# A chain from "b" back down the run of "a"s continues through the start
# symbol at origin 0 (root ::= run) and stops at wrap, whose only waiter is
# not complete once advanced: the completed start item is skipped.
LEO_START = """
root ::= run | wrap "c"
wrap ::= root
run ::= "a" run | "b"
"""

# Completions at one origin that come round: root -> wrap -> root.
UNIT_CYCLE = """
root ::= "a" root | "b" | wrap
wrap ::= root
"""

LEO_GRAMMARS = {"right_rec": RIGHT_REC, "leo_start": LEO_START, "unit_cycle": UNIT_CYCLE}


@pytest.mark.parametrize(
    "text,depth",
    [
        (GRAMMARS["dyck1"], 8),
        (GRAMMARS["dyck2"], 8),
        (GRAMMARS["arith"], 8),
        (NULLABLE_LEAD, 6),
        (RIGHT_REC, 8),
        (LEO_START, 8),
        (UNIT_CYCLE, 8),
    ],
    ids=["dyck1", "dyck2", "arith", "nullable_lead", "right_rec", "leo_start", "unit_cycle"],
)
def test_engine_agrees_with_prefix_oracle(text, depth):
    # Exhaustive over all strings up to ``depth`` bytes, walked down the
    # prefix tree: once both sides reject a prefix, every extension is
    # rejected by both as well, so pruning loses nothing.
    g = validate(parse_grammar(text))
    alphabet = sorted(g.alphabet)
    layer = [(b"", new_state(g))]
    assert layer[0][1].complete == oracle_membership(g, b"")
    for _ in range(depth):
        nxt = []
        for w, state in layer:
            for b in alphabet:
                cand = w + bytes([b])
                got = try_advance(state, bytes([b]))
                viable = oracle_prefix(g, cand)
                assert (got is not None) == viable, cand
                if got is not None:
                    assert got.complete == oracle_membership(g, cand), cand
                    nxt.append((cand, got))
        layer = nxt


def test_leo_chain_through_start_at_origin_zero_sets_complete():
    g = validate(parse_grammar(LEO_START))
    s = try_advance(new_state(g), b"aab")
    start_items = {
        (pid, len(body), 0) for pid, (head, body) in enumerate(g.productions) if head == g.start
    }
    assert s.complete
    assert not start_items & carried_items(s.last), "the chain should skip the start item"
    assert start_items & s.item_set()


def test_leo_chain_deeper_than_the_recursion_limit():
    # The chain down 3,000 "a"s completes only at the "b", all at once.
    g = validate(parse_grammar('root ::= "a" root | "b"'))
    whole = try_advance(new_state(g), b"a" * 3000)
    s = new_state(g)
    for _ in range(3000):
        s = try_advance(s, b"a")
    assert whole.digest() == s.digest()
    done = try_advance(whole, b"b")
    assert done.complete and not whole.complete
    vocab = Vocabulary((b"a", b"b", b"aa", b"ab", b"ba", b""), frozenset({5}), 5)
    gnf = to_gnf(g)
    sweep = compute_all_displacements(vocab.tokens, gnf, build_stack_adjacency(gnf))
    tbl = build_class_table(vocab, sweep.displacements)
    for state in (whole, done):
        expanded = expand_class_mask(compute_mask_compressed(state, tbl, vocab).bits, tbl)
        assert np.array_equal(expanded, compute_mask_naive(state, vocab).bits)
    data = b"a" * 300 + b"b"
    assert try_advance(new_state(g), data).item_set() == earley_item_sets(g, data)[-1]


def test_naive_mask_dyck_small_vocab():
    g = suite_grammar("dyck1")
    vocab = Vocabulary(tokens=(b"(", b")", b"()", b"\x00"), specials=frozenset({3}), eos_id=3)
    mask = compute_mask_naive(new_state(g), vocab)
    # Oracle-derived: "(", "()" viable from scratch, ")" not; EOS on (eps in L).
    assert mask.bits.tolist() == [True, False, True, True]
    assert len(mask.bits) == len(vocab)  # one bit per token


def test_naive_mask_single_rule():
    g = validate(parse_grammar('root ::= "a"'))
    vocab = Vocabulary(tokens=(b"a", b"b"))
    mask = compute_mask_naive(new_state(g), vocab)
    assert mask.bits.tolist() == [True, False]


def test_all_zero_mask_is_a_visible_dead_end():
    # Truncated vocabulary: after "(" only "x" can follow, but the
    # vocabulary lacks it; the run reports "stuck" instead of crashing.
    g = validate(parse_grammar('root ::= "(" "x" ")" | "x"'))
    vocab = Vocabulary(tokens=(b"(", b"\x00"), specials=frozenset({1}), eos_id=1)
    report = fuzz_decode(g, vocab, None, FuzzConfig(seed=0, steps=5, runs=1))
    assert report.runs[0].outcome == "stuck"
    state = try_advance(new_state(g), b"(")
    assert int(compute_mask_naive(state, vocab).bits.sum()) == 0


def test_eos_bit_tracks_completeness():
    g = suite_grammar("dyck1")
    vocab = suite_vocabulary("dyck1", long_tokens=0)
    s = new_state(g)
    assert compute_mask_naive(s, vocab).bits[vocab.eos_id] == True  # noqa: E712
    s1 = try_advance(s, b"(")
    assert compute_mask_naive(s1, vocab).bits[vocab.eos_id] == False  # noqa: E712


def test_compressed_equals_naive_on_fuzz_walk():
    g, vocab, tbl = pipeline("dyck2")
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=11, steps=40, runs=3))
    assert report.total_steps > 0
    assert report.total_mismatches == 0
    for run in report.runs:
        assert all(s.masks_equal for s in run.steps)


def test_fuzz_compares_against_the_real_bytes():
    # A lossy table that puts "((" in the class of "(": masks taken on the
    # state advanced by representatives agree with each other, but after
    # "((" the real stream is one level deeper than the engine's state.
    g = suite_grammar("dyck1")
    vocab = Vocabulary(tokens=(b"(", b"((", b")", b"\x00"), specials=frozenset({3}), eos_id=3)
    tbl = ClassTable(
        c=np.array([0, 0, 1, 2], dtype=np.uint32),
        r=np.array([0, 2, 3], dtype=np.uint32),
        class_count=3,
        grammar_digest=b"",
        vocab_digest=b"",
        passthrough=frozenset({2}),
    )
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=0, steps=12, runs=40))
    assert report.total_mismatches > 0
    outcomes = {run.outcome for run in report.runs}
    assert "diverged" in outcomes and outcomes <= {"completed", "truncated", "diverged"}


def test_dead_class_bit_always_zero():
    g, vocab, tbl = pipeline("arith")
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    dead = {i for i, d in enumerate(sweep.displacements) if d is not None and not d.pairs}
    assert dead, "expected at least one dead token in the test vocab"
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=5, steps=30, runs=2))
    s = new_state(g)
    comp = compute_mask_compressed(s, tbl, vocab)
    for tid in dead:
        assert not comp.bits[int(tbl.c[tid])]


def test_allowed_class_members_individually_viable():
    g, vocab, tbl = pipeline("dyck1")
    s = try_advance(new_state(g), b"(")
    comp = compute_mask_compressed(s, tbl, vocab)
    members = tbl.class_members()
    for k in np.flatnonzero(comp.bits):
        if int(k) in tbl.passthrough:
            continue
        for tid in members[int(k)]:
            assert try_advance(s, vocab.tokens[tid]) is not None


def test_commit_representative_is_identity_commit():
    g, vocab, tbl = pipeline("dyck1")
    s = new_state(g)
    rep_id = int(tbl.r[tbl.c[vocab.tokens.index(b"(")]])
    a = commit_token(s, rep_id, tbl, vocab)
    b = try_advance(s, vocab.tokens[rep_id])
    assert a.digest() == b.digest()


def test_commit_member_equals_commit_representative():
    g, vocab, tbl = pipeline("dyck1")
    s = new_state(g)
    # "(()" shares a class with "(" (frozen displacement golden).
    member = vocab.tokens.index(b"(()")
    rep = int(tbl.r[tbl.c[member]])
    assert vocab.tokens[rep] == b"("
    via_member = commit_token(s, member, tbl, vocab)
    via_rep = commit_token(s, rep, tbl, vocab)
    m1 = compute_mask_naive(via_member, vocab)
    m2 = compute_mask_naive(via_rep, vocab)
    assert np.array_equal(m1.bits, m2.bits)


def test_commit_masked_token_is_contract_violation():
    g, vocab, tbl = pipeline("dyck1")
    s = new_state(g)
    closing = vocab.tokens.index(b")")
    with pytest.raises(MaskedTokenError):
        commit_token(s, closing, tbl, vocab)
    with pytest.raises(MaskedTokenError):
        commit_token(s, vocab.eos_id, tbl, vocab)


def test_sampled_stream_stays_oracle_valid_while_engine_tracks_reps():
    # The engine advances by representatives; the sampled byte stream must
    # still be a valid prefix at every step (and a word when completed).
    g, vocab, tbl = pipeline("dyck1")
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=3, steps=12, runs=4))
    for run in report.runs:
        prefix = b""
        for step in run.steps:
            if step.sampled_token in (None, vocab.eos_id):
                continue
            prefix += vocab.tokens[step.sampled_token]
            assert oracle_prefix(g, prefix, bound=64), (run.run_index, prefix)
        if run.outcome == "completed":
            assert oracle_membership(g, run.output, bound=64)


def test_state_digest_deterministic():
    g = suite_grammar("dyck1")
    a = try_advance(new_state(g), b"(()")
    b = try_advance(new_state(g), b"(()")
    assert a.digest() == b.digest()
    c = try_advance(new_state(g), b"((")
    assert a.digest() != c.digest()


def per_rep_mask(s, tbl, vocab):
    """The reference for the trie walk: one trial advance per class
    representative, pass-through classes decided by the EOS rule."""
    bits = np.zeros(tbl.class_count, dtype=bool)
    eos_class = int(tbl.c[vocab.eos_id]) if vocab.eos_id is not None else -1
    for k in range(tbl.class_count):
        if k in tbl.passthrough:
            bits[k] = s.complete and k == eos_class
        else:
            bits[k] = try_advance(s, vocab.tokens[int(tbl.r[k])]) is not None
    return bits


def singleton_table(vocab):
    """Every token is its own class and representative: the compressed
    mask must equal the naive one bit for bit."""
    ids = np.arange(len(vocab), dtype=np.uint32)
    return ClassTable(
        c=ids,
        r=ids.copy(),
        class_count=len(vocab),
        grammar_digest=b"",
        vocab_digest=b"",
        passthrough=frozenset(vocab.specials),
    )


def test_trie_mask_empty_prefix_and_passthrough_representatives():
    g = suite_grammar("dyck1")
    tokens = (b"", b"(", b"((", b"()", b"())", b")", b")(", b"\x00", b"\x01")
    vocab = Vocabulary(tokens=tokens, specials=frozenset({7, 8}), eos_id=7)
    tbl = singleton_table(vocab)
    s = new_state(g)
    # "()" is accepted but its extension "())" is not; ")" fails before
    # ")(" is tried; EOS follows completeness; the other special never passes.
    want = [True, True, True, True, False, False, False, True, False]
    assert compute_mask_compressed(s, tbl, vocab).bits.tolist() == want
    opened = try_advance(s, b"(")
    want = [True, True, True, True, True, True, True, False, False]
    assert compute_mask_compressed(opened, tbl, vocab).bits.tolist() == want
    for state in (s, opened):
        assert np.array_equal(
            compute_mask_compressed(state, tbl, vocab).bits, compute_mask_naive(state, vocab).bits
        )


def test_compressed_eos_class_tracks_completeness():
    g, vocab, tbl = pipeline("dyck1")
    eos_class = int(tbl.c[vocab.eos_id])
    assert eos_class in tbl.passthrough
    for prefix, complete in ((b"", True), (b"(", False), (b"()", True), (b"((", False)):
        s = try_advance(new_state(g), prefix)
        assert bool(compute_mask_compressed(s, tbl, vocab).bits[eos_class]) is complete


@lru_cache(maxsize=None)
def suite_pipeline(name):
    return pipeline(name)


@st.composite
def reachable_states(draw):
    """A suite grammar and a state reached by a random viable byte walk."""
    name = draw(st.sampled_from(sorted(GRAMMARS)))
    g = suite_pipeline(name)[0]
    s = new_state(g)
    for b in draw(st.lists(st.sampled_from(sorted(g.alphabet)), max_size=12)):
        s = try_advance(s, bytes([b])) or s
    return name, s


@settings(derandomize=True, max_examples=150, deadline=None)
@given(reachable_states())
def test_trie_mask_equals_per_representative_trials(drawn):
    name, s = drawn
    _, vocab, tbl = suite_pipeline(name)
    assert np.array_equal(compute_mask_compressed(s, tbl, vocab).bits, per_rep_mask(s, tbl, vocab))
    single = singleton_table(vocab)
    assert np.array_equal(
        compute_mask_compressed(s, single, vocab).bits, compute_mask_naive(s, vocab).bits
    )


def shared_form(g, items):
    """Items up to which production a complete scanned item finished: such
    an item becomes ``(head, origin)``, any other stays as it is."""
    out = set()
    for pid, dot, org in items:
        head, body = g.productions[pid]
        if dot == len(body) and isinstance(body[-1], int):
            out.add((head, org))
        else:
            out.add((pid, dot, org))
    return frozenset(out)


WALK_PREFIXES = [b"", b"[", b'{"ab', b'["a",', b'{"a":1']


@pytest.mark.parametrize("table", ["classes", "singletons"])
@pytest.mark.parametrize("prefix", WALK_PREFIXES)
def test_trie_walk_shares_closes_among_equal_seed_chains(prefix, table):
    # The walk closes a frontier once per accepted prefix that a longer
    # representative extends, except that prefixes whose every byte scanned
    # to the same seeds, up to which production a complete seed finished,
    # share one close.  The reference groups the accepted inner prefixes by
    # that chain of seeds, read from each prefix's full Earley item set:
    # the scanned items are those whose dot follows a byte.
    g, vocab, tbl = suite_pipeline("json_mini")
    if table == "singletons":
        tbl = singleton_table(vocab)
    s = try_advance(new_state(g), prefix)
    assert s is not None
    reps = {vocab.tokens[int(r)] for k, r in enumerate(tbl.r) if k not in tbl.passthrough}
    inner = {rep[:i] for rep in reps for i in range(1, len(rep))}
    chains, frontiers = {}, {}
    for p in sorted(inner, key=len):
        t = try_advance(s, p)
        if t is None:
            continue
        scanned = {
            (pid, dot, org)
            for pid, dot, org in t.item_set()
            if dot and isinstance(g.productions[pid][1][dot - 1], int)
        }
        chains[p] = chains.get(p[:-1], ()) + (shared_form(g, scanned),)
        # Equal chains close equal frontiers: the sharing rule is exact.
        frontier = (t.last.pos, shared_form(g, carried_items(t.last)))
        assert frontiers.setdefault(chains[p], frontier) == frontier
    want = Counter(frontiers.values())
    assert want
    with counting_closes() as closed:
        compute_mask_compressed(s, tbl, vocab)
    got = Counter()
    for (pos, items), n in closed.items():
        got[(pos, shared_form(g, items))] += n
    assert got == want


def test_trie_walk_shares_closes_inside_a_string():
    # Every plain byte in a string completes ``char``, so the walk closes
    # fewer frontiers than there are accepted inner prefixes.  One token per
    # class keeps both string bytes apart in the trie.
    g, vocab, _ = suite_pipeline("json_mini")
    tbl = singleton_table(vocab)
    s = try_advance(new_state(g), b'{"ab')
    reps = {vocab.tokens[int(r)] for k, r in enumerate(tbl.r) if k not in tbl.passthrough}
    inner = {rep[:i] for rep in reps for i in range(1, len(rep))}
    accepted = [p for p in inner if try_advance(s, p) is not None]
    with counting_closes() as closed:
        compute_mask_compressed(s, tbl, vocab)
    assert 0 < sum(closed.values()) < len(accepted)


def short_string_vocabulary(alphabet):
    """Every string of one to four bytes over ``alphabet``, plus EOS."""
    tokens = [bytes(p) for n in range(1, 5) for p in itertools.product(sorted(alphabet), repeat=n)]
    eos = len(tokens)
    tokens.append(b"</s>")
    return Vocabulary(tokens=tuple(tokens), specials=frozenset({eos}), eos_id=eos)


@st.composite
def random_grammar_walks(draw):
    g, alphabet = draw(random_grammars(SHAPES))
    return g, alphabet, draw(st.lists(st.sampled_from(alphabet), max_size=6))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(random_grammar_walks())
def test_trie_walk_equals_naive_mask_on_random_grammars(case):
    # Different bytes complete different heads here, so shared closes are
    # tried where seeds differ; right-recursive bodies add Leo chains.
    g, alphabet, walk = case
    vocab = short_string_vocabulary(alphabet)
    single = singleton_table(vocab)
    # Small caps keep each compile cheap: a few random grammars inflate to
    # 50k GNF productions, and a sweep under the default node budget can
    # take gigabytes.  Over-budget tokens get singleton classes.
    try:
        gnf = to_gnf(g, max_productions=400)
    except (GrammarError, GnfSizeError):
        tbl = None
    else:
        adj = build_stack_adjacency(gnf)
        sweep = compute_all_displacements(vocab.tokens, gnf, adj, budget=10_000)
        tbl = build_class_table(vocab, sweep.displacements)
    s = new_state(g)
    for b in [None, *walk]:
        if b is not None:
            s = try_advance(s, bytes([b])) or s
        assert np.array_equal(
            compute_mask_compressed(s, single, vocab).bits, compute_mask_naive(s, vocab).bits
        )
        if tbl is not None:
            assert np.array_equal(
                compute_mask_compressed(s, tbl, vocab).bits, per_rep_mask(s, tbl, vocab)
            )


@st.composite
def random_grammar_fuzzes(draw):
    g, alphabet = draw(random_grammars(SHAPES))
    return g, alphabet, draw(st.integers(0, 2**16))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(random_grammar_fuzzes())
def test_fuzz_lossless_on_random_grammars(case):
    # Dual-state losslessness: the compressed mask on the state advanced by
    # representatives equals the naive mask on the state advanced by the
    # sampled bytes, at every step, on grammars of every shape.
    g, alphabet, seed = case
    strings = (itertools.product(sorted(alphabet), repeat=n) for n in range(1, 4))
    tokens = [b""] + [bytes(p) for group in strings for p in group]
    eos = len(tokens)
    vocab = Vocabulary(tokens=(*tokens, b"</s>"), specials=frozenset({eos}), eos_id=eos)
    try:
        gnf = to_gnf(g, max_productions=400)
    except GnfSizeError:
        return  # a few random grammars inflate past the cap
    sweep = compute_all_displacements(vocab.tokens, gnf, build_stack_adjacency(gnf), budget=10_000)
    tbl = build_class_table(vocab, sweep.displacements)
    report = fuzz_decode(g, vocab, tbl, FuzzConfig(seed=seed, steps=20, runs=2))
    assert report.total_mismatches == 0
    assert all(run.outcome != "diverged" for run in report.runs)


def test_grammar_keyed_caches_stay_bounded():
    # The engine and oracle caches keep at most their bound of grammars,
    # however many grammars a process queries (the random-grammar
    # properties query hundreds).
    from cfgzip.engine import _engine_for
    from cfgzip.oracle import _oracle_for

    for n in range(1, 41):
        g = validate(parse_grammar(f'root ::= "{"a" * n}"'))
        assert new_state(g) is not None and oracle_membership(g, b"a" * n, bound=64)
    for cached in (_engine_for, _oracle_for):
        info = cached.cache_info()
        assert info.maxsize == 32 and info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "text,prefix",
    [
        # After "s", "a" completes p and "b" completes q, both at origin 0.
        ('root ::= p "x" | q "y"\np ::= "s" "a"\nq ::= "s" "b"', b"s"),
        # After "ss", "b" completes a at origin 0 and "a" completes it at 1.
        ('root ::= a "y" | "s" a "x"\na ::= "s" "a" | "s" "s" "b"', b"ss"),
    ],
    ids=["heads", "origins"],
)
def test_trie_walk_keeps_carried_completions_apart(text, prefix):
    # Bytes whose carried seeds complete different heads, or one head at
    # different origins, must not share a close: only "ax" and "by" pass.
    g = validate(parse_grammar(text))
    vocab = short_string_vocabulary(g.alphabet)
    s = try_advance(new_state(g), prefix)
    assert np.array_equal(
        compute_mask_compressed(s, singleton_table(vocab), vocab).bits,
        compute_mask_naive(s, vocab).bits,
    )
    assert try_advance(s, b"ax") and try_advance(s, b"by")
    assert not try_advance(s, b"ay") and not try_advance(s, b"bx")


def reference_digest(consumed, items):
    """``EngineState.digest()`` computed from a reference item set."""
    h = hashlib.sha1()
    h.update(str(consumed).encode())
    for item in sorted(items):
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def assert_matches_reference(g, data, s):
    sets = earley_item_sets(g, data)
    assert sets is not None
    want = sets[-1]
    assert s.item_set() == want
    assert s.digest() == reference_digest(len(data), want)
    ends = {(pid, len(body), 0) for pid, (head, body) in enumerate(g.productions) if head == g.start}
    assert s.complete == bool(ends & want)


@st.composite
def byte_walks(draw):
    """A grammar (suite, Leo, or random of all six shapes) and a viable
    prefix reached by a random byte walk that skips the bytes the engine
    rejects."""
    if draw(st.booleans()):
        g, alphabet = draw(random_grammars(SHAPES))
    else:
        texts = {**GRAMMARS, **LEO_GRAMMARS}
        g = validate(parse_grammar(texts[draw(st.sampled_from(sorted(texts)))]))
        alphabet = sorted(g.alphabet)
    data = b""
    s = new_state(g)
    for b in draw(st.lists(st.sampled_from(alphabet), max_size=24)):
        nxt = try_advance(s, bytes([b]))
        if nxt is not None:
            s, data = nxt, data + bytes([b])
    return g, data, s


@settings(derandomize=True, max_examples=600, deadline=None)
@given(byte_walks())
def test_item_set_and_digest_match_textbook_earley(walk):
    assert_matches_reference(*walk)


@pytest.mark.parametrize(
    "name,data",
    [
        ("json_mini", b'["' + b"ab" * 20),
        ("json_mini", b'{"' + b"ba" * 10 + b'":[1' + b"01" * 10),
        ("right_rec", b"a" * 30 + b"b" + b"c" * 30),
        ("leo_start", b"a" * 30 + b"bcc"),
        ("unit_cycle", b"a" * 30 + b"b"),
    ],
    ids=["json_array_string", "json_key_and_number", "right_rec", "leo_start", "unit_cycle"],
)
def test_long_chains_match_textbook_earley(name, data):
    g = validate(parse_grammar({**GRAMMARS, **LEO_GRAMMARS}[name]))
    s = new_state(g)
    for i in range(len(data)):
        s = try_advance(s, data[i : i + 1])
        assert s is not None
    assert_matches_reference(g, data, s)


def greedy_tokens(text, vocab):
    """The longest-match tokenization of ``text`` over the non-special tokens."""
    by_bytes = {t: i for i, t in enumerate(vocab.tokens) if t and i not in vocab.specials}
    longest = max(map(len, by_bytes))
    out, i = [], 0
    while i < len(text):
        for n in range(min(longest, len(text) - i), 0, -1):
            tid = by_bytes.get(text[i : i + n])
            if tid is not None:
                out.append(tid)
                i += n
                break
        else:
            raise AssertionError(f"no token at byte {i}")
    return out


def test_long_string_value_masks_match_real_bytes():
    # A 5,000-byte string value, decoded through the class table: the
    # engine follows representatives, the reference the real bytes.
    g, vocab, tbl = suite_pipeline("json_mini")
    rng = np.random.default_rng(7)
    text = b'"' + bytes(rng.choice(list(b"ab"), 5000).tolist()) + b'"'
    s = real = new_state(g)
    out, checked, next_check = 0, 0, 0
    for tid in greedy_tokens(text, vocab):
        comp = compute_mask_compressed(s, tbl, vocab)
        expanded = expand_class_mask(comp.bits, tbl)
        assert expanded[tid]
        if out >= next_check:
            assert np.array_equal(expanded, compute_mask_naive(real, vocab).bits), out
            checked += 1
            next_check += 997
        s = commit_token(s, tid, tbl, vocab)
        real = try_advance(real, vocab.tokens[tid])
        out += len(vocab.tokens[tid])
    assert checked >= 5 and real.complete and s.complete
    assert compute_mask_compressed(s, tbl, vocab).bits[int(tbl.c[vocab.eos_id])]


def test_mask_work_is_flat_inside_a_long_string():
    # Timing-free: the frontier at byte 4,000 of a string holds as many
    # items as the one at byte 40, and the compressed mask closes frontiers
    # of the same sizes at both.
    g, vocab, tbl = suite_pipeline("json_mini")
    text = b'"' + b"ab" * 2000
    at_40 = try_advance(new_state(g), text[:41])
    at_4000 = try_advance(new_state(g), text[:4001])
    assert len(at_4000.last.items) == len(at_40.last.items)

    def closed_items(state):
        with counting_closes() as closed:
            compute_mask_compressed(state, tbl, vocab)
        return sorted(len(items) for (_, items), n in closed.items() for _ in range(n))

    assert closed_items(at_40) == closed_items(at_4000)


def test_ten_thousand_byte_string_in_one_advance():
    g = suite_grammar("json_mini")
    s = try_advance(new_state(g), b'"' + b"ab" * 5000)
    assert s is not None and not s.complete
    done = try_advance(s, b'"')
    assert done is not None and done.complete
    # Every chain is expanded back for the digest, in a loop.
    assert len(s.item_set()) > 10_000
    assert done.digest() != s.digest()
