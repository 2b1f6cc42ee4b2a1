"""Displacement search: goldens, pruning losslessness, budgets."""

import gc
import itertools
import os
import subprocess
import sys
import textwrap
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgzip import (
    Displacement,
    GnfSizeError,
    GrammarError,
    SearchBudgetExceeded,
    Vocabulary,
    build_class_table,
    build_stack_adjacency,
    compute_all_displacements,
    compute_displacement,
    compute_displacement_annotated,
    parse_grammar,
    to_gnf,
    trace_displacement,
    validate,
)

from conftest import (
    GRAMMARS,
    SHAPES,
    figure_grammar,
    hosted_figure_grammar,
    random_grammars,
    suite_grammar,
    suite_vocabulary,
)


def single_rule_gnf():
    return to_gnf(validate(parse_grammar('root ::= "a"')))


def test_single_production_single_step():
    gnf = single_rule_gnf()
    d = compute_displacement(b"a", gnf, None)
    assert frozenset(d.pairs) == frozenset({(("root",), ())})


def test_walkthrough_token_displacement_exact():
    # The raw search finds exactly one pair for "abcxyz"; nothing else.
    toy = figure_grammar()
    d = compute_displacement(b"abcxyz", toy, None)
    assert frozenset(d.pairs) == frozenset({(("A", "X"), ("J", "K"))})


def test_walkthrough_six_step_trace():
    toy = figure_grammar()
    paths = trace_displacement(b"abcxyz", toy)
    assert len(paths) == 1
    inq, out, steps = paths[0]
    assert (inq, out) == (("A", "X"), ("J", "K"))
    snapshots = [(s.input_queue, s.output_stack) for s in steps]
    assert snapshots == [
        (("A",), ("B", "C")),
        (("A",), ("C",)),
        (("A",), ()),
        (("A", "X"), ("Y",)),
        (("A", "X"), ("Z", "J", "K")),
        (("A", "X"), ("J", "K")),
    ]
    assert [s.backtrack for s in steps] == [True, False, False, True, False, False]
    assert [(s.head, s.tail) for s in steps] == [
        ("A", ("B", "C")),
        ("B", ()),
        ("C", ()),
        ("X", ("Y",)),
        ("Y", ("Z", "J", "K")),
        ("Z", ()),
    ]


def test_walkthrough_pruned_on_hosted_grammar():
    # With the host production the adjacency-pruned search reproduces the
    # same single pair; on the bare fragment the backtrack at 'x' has no
    # admissible predecessor and the pruned set is empty.
    hosted = hosted_figure_grammar()
    adj = build_stack_adjacency(hosted)
    pairs = compute_displacement(b"abcxyz", hosted, adj).pairs
    assert frozenset(pairs) == frozenset({(("A", "X"), ("J", "K"))})
    bare = figure_grammar()
    bare_adj = build_stack_adjacency(bare)
    assert frozenset(compute_displacement(b"abcxyz", bare, bare_adj).pairs) == frozenset()


def test_first_step_backtrack_is_unpruned():
    gnf = single_rule_gnf()
    adj = build_stack_adjacency(gnf)  # empty relation
    assert adj.pairs == frozenset()
    d = compute_displacement(b"a", gnf, adj)
    assert frozenset(d.pairs) == frozenset({(("root",), ())})


def test_empty_token_gets_identity_displacement():
    gnf = to_gnf(suite_grammar("dyck1"))
    d = compute_displacement(b"", gnf, None)
    assert d == compute_displacement(b"", gnf, build_stack_adjacency(gnf))
    assert frozenset(d.pairs) == frozenset({((), ())})
    assert d.key == frozenset({chr(len(gnf.nonterminals))})


def test_byte_outside_alphabet_is_dead_without_search():
    gnf = single_rule_gnf()
    assert frozenset(compute_displacement(b"b", gnf, None).pairs) == frozenset()
    assert frozenset(compute_displacement(b"ab", gnf, None).pairs) == frozenset()


def test_dyck_goldens_from_raw_search():
    # Frozen from the unpruned oracle: "(()" folds into "("'s class while
    # "()(" stays apart (it admits two-symbol input stacks).
    g = suite_grammar("dyck1")
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    d_open = compute_displacement(b"(", gnf, adj)
    assert len(d_open.pairs) == 8
    assert max(len(q) for q, _ in d_open.pairs) == 1
    assert compute_displacement(b"(()", gnf, adj) == d_open
    d_reopen = compute_displacement(b"()(", gnf, adj)
    assert d_reopen != d_open
    assert max(len(q) for q, _ in d_reopen.pairs) == 2


@pytest.mark.parametrize("name", ["dyck1", "dyck2", "arith", "json_mini"])
def test_pruned_equals_filtered_raw(name):
    # In-search pruning must agree with replaying the adjacency checks over
    # the raw search, token by token.
    g = suite_grammar(name)
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    vocab = suite_vocabulary(name, long_tokens=20)
    for token in dict.fromkeys(vocab.tokens):
        raw, filtered = compute_displacement_annotated(token, gnf, adj)
        pruned = compute_displacement(token, gnf, adj)
        assert frozenset(pruned.pairs) == frozenset(filtered.pairs), token
        assert frozenset(pruned.pairs) <= frozenset(raw.pairs), token


def test_input_stack_never_longer_than_token():
    gnf = to_gnf(suite_grammar("dyck2"))
    adj = build_stack_adjacency(gnf)
    vocab = suite_vocabulary("dyck2", long_tokens=25)
    for token in dict.fromkeys(vocab.tokens):
        d = compute_displacement(token, gnf, adj)
        assert max((len(q) for q, _ in d.pairs), default=0) <= len(token)


def test_budget_exceeded_raises():
    gnf = to_gnf(suite_grammar("mini_c"))
    with pytest.raises(SearchBudgetExceeded):
        compute_displacement(b"x=01;x=1;", gnf, None, budget=200)


def test_displacement_hash_is_order_independent():
    # Nonterminals A, B, C code as chr(0), chr(1), chr(2); the separator is chr(3).
    names = ("A", "B", "C")
    pairs = ["\x01\x03\x00", "\x03\x02"]  # (("A",), ("B",)) and (("C",), ())
    a = Displacement(frozenset(pairs), names)
    b = Displacement(frozenset(reversed(pairs)), tuple(names))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a.key)
    assert a.sorted_pairs() == b.sorted_pairs() == [(("A",), ("B",)), (("C",), ())]
    assert a != Displacement(frozenset(pairs), ("A", "B", "D"))
    assert (("A",), ("B",)) in a.pairs and (("Z",), ()) not in a.pairs and 1 not in a.pairs


def test_sweep_trivial_vocab():
    gnf = single_rule_gnf()
    sweep = compute_all_displacements([b"a", b"b"], gnf, None)
    assert frozenset(sweep.displacements[0].pairs) == frozenset({(("root",), ())})
    assert frozenset(sweep.displacements[1].pairs) == frozenset()
    assert sweep.budget_exceeded == []


def test_sweep_duplicates_share_value():
    gnf = to_gnf(suite_grammar("dyck1"))
    adj = build_stack_adjacency(gnf)
    sweep = compute_all_displacements([b"()", b"(", b"()"], gnf, adj)
    assert sweep.displacements[0] == sweep.displacements[2]
    assert sweep.displacements[0] is sweep.displacements[2]  # computed once


def test_sweep_aggregates_budget_failures():
    gnf = to_gnf(suite_grammar("mini_c"))
    sweep = compute_all_displacements([b"x", b"x=01;x=1;", b"y"], gnf, None, budget=200)
    assert 1 in sweep.budget_exceeded
    assert sweep.displacements[1] is None
    assert sweep.displacements[0] is not None  # the sweep never aborts


def per_token(tokens, gnf, adj, budget=10_000_000):
    """What compute_displacement returns for each token, None where it raises."""
    out = []
    for t in tokens:
        try:
            out.append(compute_displacement(t, gnf, adj, budget))
        except SearchBudgetExceeded:
            out.append(None)
    return out


@pytest.mark.parametrize("pruned", [True, False], ids=["adj", "raw"])
def test_sweep_matches_per_token(grammar_name, pruned):
    gnf = to_gnf(suite_grammar(grammar_name))
    adj = build_stack_adjacency(gnf) if pruned else None
    vocab = suite_vocabulary(grammar_name)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    assert sweep.displacements == per_token(vocab.tokens, gnf, adj)
    assert sweep.budget_exceeded == []


def test_sweep_budget_fallbacks_match_per_token():
    # Budget 50 is over the walk of about a third of mini_c's tokens.
    gnf = to_gnf(suite_grammar("mini_c"))
    tokens = suite_vocabulary("mini_c").tokens
    sweep = compute_all_displacements(tokens, gnf, None, budget=50)
    expected = per_token(tokens, gnf, None, budget=50)
    assert sweep.budget_exceeded == [i for i, d in enumerate(expected) if d is None]
    assert 0 < len(sweep.budget_exceeded) < len(tokens) // 2
    assert sweep.displacements == expected


def test_sweep_after_fallback_restarts_from_shared_prefix():
    # "x=01;x=1;" runs out of budget at "x=01;x=": the step on "1" from
    # there would build about 267k entries.  The tokens sorted after it
    # share parts of its prefix and must still be walked from the memo.
    gnf = to_gnf(suite_grammar("mini_c"))
    tokens = [b"x=01;x=1;", b"x=01;x=1;y", b"x=01;x", b"x=01;y", b"x=1;x=0;", b"x=1", b"y=1"]
    sweep = compute_all_displacements(tokens, gnf, None, budget=100_000)
    assert sweep.budget_exceeded == [0, 1]
    assert sweep.displacements[2:] == per_token(tokens[2:], gnf, None, budget=100_000)


def test_sweep_prefix_over_budget_fails_every_extension():
    gnf = to_gnf(suite_grammar("mini_c"))
    alphabet = sorted(gnf.alphabet)
    n = len(alphabet)
    tokens = [b"x=01;x=1;" + bytes([alphabet[i % n]]) * (1 + i // n) for i in range(200)]
    assert len(set(tokens)) == 200
    sweep = compute_all_displacements(tokens, gnf, None, budget=200)
    assert sweep.budget_exceeded == list(range(200))


@lru_cache(maxsize=None)
def compiled(name):
    gnf = to_gnf(suite_grammar(name))
    return gnf, build_stack_adjacency(gnf)


@st.composite
def vocabularies(draw):
    """A grammar and tokens with shared prefixes, foreign bytes, the empty
    token and duplicates."""
    name = draw(st.sampled_from(["dyck2", "arith", "json_mini"]))
    gnf, _ = compiled(name)
    foreign = min(set(range(1, 256)) - gnf.alphabet)
    word = st.lists(st.sampled_from(sorted(gnf.alphabet) + [foreign]), max_size=4).map(bytes)
    stems = draw(st.lists(word, min_size=1, max_size=4))
    tokens = draw(st.lists(st.tuples(st.sampled_from(stems), word).map(b"".join), max_size=12))
    tokens += draw(st.lists(st.sampled_from(tokens + [b""]), max_size=3))
    return name, draw(st.permutations(tokens))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vocabularies(), st.booleans())
def test_sweep_per_token_and_trace_agree(drawn, pruned):
    name, tokens = drawn
    gnf, adj = compiled(name)
    adj = adj if pruned else None
    sweep = compute_all_displacements(tokens, gnf, adj)
    assert sweep.displacements == per_token(tokens, gnf, adj)
    for t in tokens:
        if len(t) <= 5:
            traced = frozenset((inq, out) for inq, out, _ in trace_displacement(t, gnf))
            assert frozenset(compute_displacement(t, gnf, None).pairs) == traced, t


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_sweep_leaves_collector_as_found(enabled):
    gnf, adj = compiled("dyck2")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        compute_all_displacements([b"(", b"([", b"]"], gnf, adj)
        assert gc.isenabled() is enabled
        with pytest.raises(TypeError):
            compute_all_displacements([b"(", "("], gnf, adj)  # unsortable tokens
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_memoized_matches_naive_recursion():
    # The state-set walk must return exactly the set the plain recursion
    # over search paths finds.
    gnf = to_gnf(suite_grammar("dyck2"))
    vocab = suite_vocabulary("dyck2", long_tokens=5)
    for token in list(dict.fromkeys(vocab.tokens))[:40]:
        if not token or token == b"\x00":
            continue
        naive_pairs = frozenset((inq, out) for inq, out, _ in trace_displacement(token, gnf))
        assert frozenset(compute_displacement(token, gnf, None).pairs) == naive_pairs, token


@st.composite
def suite_vocabularies(draw):
    """One of the five suite grammars, and a vocabulary of short tokens over
    its alphabet with foreign bytes, the empty token, duplicates and an
    end-of-sequence special."""
    name = draw(st.sampled_from(sorted(GRAMMARS)))
    gnf, _ = compiled(name)
    foreign = min(set(range(1, 256)) - gnf.alphabet)
    word = st.lists(st.sampled_from(sorted(gnf.alphabet) + [foreign]), max_size=5).map(bytes)
    tokens = draw(st.lists(word, min_size=1, max_size=16))
    tokens += draw(st.lists(st.sampled_from(tokens + [b""]), max_size=3))
    tokens.append(b"\x00")
    eos = len(tokens) - 1
    return name, Vocabulary(tuple(tokens), frozenset({eos}), eos)


def grouped_by_pairs(vocab, disps):
    """c and r from grouping tokens on frozenset(d.pairs): specials alone,
    over-budget tokens by bytes, byte-shortest representatives."""
    keys, c, r = {}, [], []
    for tid, token in enumerate(vocab.tokens):
        d = disps[tid]
        if tid in vocab.specials:
            key = ("special", tid)
        else:
            key = ("fallback", token) if d is None else frozenset(d.pairs)
        if key not in keys:
            keys[key] = len(r)
            r.append(tid)
        cid = keys[key]
        if (len(token), tid) < (len(vocab.tokens[r[cid]]), r[cid]):
            r[cid] = tid
        c.append(cid)
    return c, r


@settings(derandomize=True, max_examples=150, deadline=None)
@given(suite_vocabularies())
def test_coded_displacements_interoperate(drawn):
    name, vocab = drawn
    gnf, adj = compiled(name)
    sweep = compute_all_displacements(vocab.tokens, gnf, adj)
    code, sep = gnf.code.__getitem__, chr(len(gnf.nonterminals))
    for token, d in zip(vocab.tokens, sweep.displacements):
        single = compute_displacement(token, gnf, adj)
        named = frozenset(d.pairs)
        assert d == single and hash(d) == hash(single) == hash(d.key), token
        # Iterating the view decodes exactly the key's strings.
        recoded = {"".join(map(code, out)) + sep + "".join(map(code, q)) for q, out in named}
        assert recoded == d.key, token
        assert len(d.pairs) == len(named) and bool(d) == bool(named), token
        assert d.sorted_pairs() == sorted(named), token
        input_lens = (len(k) - k.index(sep) - 1 for k in d.key)
        assert max(input_lens, default=0) == max((len(q) for q, _ in named), default=0), token
        assert all(pair in d.pairs for pair in named), token
        if len(token) <= 4:
            _, filtered = compute_displacement_annotated(token, gnf, adj)
            assert frozenset(filtered.pairs) == named and filtered == d, token
    tbl = build_class_table(vocab, sweep.displacements)
    c, r = grouped_by_pairs(vocab, sweep.displacements)
    assert tbl.c.tolist() == c and tbl.r.tolist() == r


# Two left-recursive levels under postfix forms: 14 productions become
# 856 in GNF, and 110 two-byte tokens carry about 55k pairs.
HEAVY = """
expr ::= expr "<" sum | sum
sum ::= sum "+" term | sum "-" term | term
term ::= term "*" unary | unary
unary ::= "-" unary | postfix
postfix ::= primary | primary "(" ")" | primary "[" expr "]"
primary ::= "a" | "1" | "(" expr ")"
"""


def test_sweep_keeps_no_object_per_pair():
    g = validate(parse_grammar(HEAVY))
    gnf = to_gnf(g)
    adj = build_stack_adjacency(gnf)
    alphabet = sorted(g.alphabet)
    tokens = [bytes([a]) for a in alphabet] + [bytes([a, b]) for a in alphabet for b in alphabet]
    was = gc.isenabled()
    gc.collect()
    # With the collector off nothing is untracked behind the count's back.
    gc.disable()
    try:
        before = len(gc.get_objects())
        sweep = compute_all_displacements(tokens, gnf, adj)
        grown = len(gc.get_objects()) - before
        pairs = sum(len(d.pairs) for d in {d.key: d for d in sweep.displacements}.values())
        assert len(gc.get_objects()) - before == grown
    finally:
        if was:
            gc.enable()
    assert pairs > 100 * len(tokens)
    assert grown <= 2 * len(tokens) + 10, (grown, pairs)


def test_pair_count_reads_the_strings_only(monkeypatch):
    # The bench reads len(d.pairs) for every token: it must not decode.
    from cfgzip import displacement

    g = validate(parse_grammar(HEAVY))
    gnf = to_gnf(g)
    alphabet = sorted(g.alphabet)
    tokens = [bytes([a, b]) for a in alphabet for b in alphabet]
    disps = compute_all_displacements(tokens, gnf, build_stack_adjacency(gnf)).displacements

    def no_decode(*args):
        raise AssertionError("decoded a pair")

    monkeypatch.setattr(displacement, "_decode", no_decode)
    assert [len(d.pairs) for d in disps] == [len(d.key) for d in disps]
    assert sum(len(d.pairs) for d in disps) > 100 * len(tokens)
    assert [bool(d) for d in disps] == [bool(d.key) for d in disps]
    with pytest.raises(AssertionError, match="decoded a pair"):
        next(iter(next(d for d in disps if d).pairs))


def test_sweep_steps_once_per_state_set_and_byte(monkeypatch):
    # Each (state-set content, byte) is stepped once, however many tokens
    # or prefixes reach it, and the memo does not outlive the call.
    from cfgzip import displacement

    calls = []
    for name in ("_step", "_last_step"):

        def counted(states, byte, *rest, real=getattr(displacement, name), name=name):
            calls.append((name, frozenset(states.items()), byte))
            return real(states, byte, *rest)

        monkeypatch.setattr(displacement, name, counted)
    gnf, adj = compiled("json_mini")
    tokens = suite_vocabulary("json_mini", long_tokens=20).tokens
    sweep = compute_all_displacements(tokens, gnf, adj)
    assert len(calls) == len(set(calls)) == sweep.steps
    assert sweep.state_sets == len({states for _, states, _ in calls})
    walked = sum(len(t) for t in set(tokens) if t and gnf.alphabet.issuperset(t))
    assert sweep.steps < walked / 2
    monkeypatch.undo()
    assert sweep.displacements == per_token(tokens, gnf, adj)
    again = compute_all_displacements(tokens, gnf, adj)
    assert (again.state_sets, again.steps) == (sweep.state_sets, sweep.steps)


@st.composite
def random_sweeps(draw):
    """A random grammar, and a shuffled vocabulary of every string of one
    to three bytes over its alphabet, a few longer ones, a foreign byte
    and the empty token."""
    g, alphabet = draw(random_grammars(SHAPES))
    tokens = [bytes(p) for n in range(1, 4) for p in itertools.product(alphabet, repeat=n)]
    longer = st.lists(st.sampled_from(alphabet), min_size=4, max_size=6).map(bytes)
    tokens += draw(st.lists(longer, max_size=4)) + [b"", b"az"]
    return g, draw(st.permutations(tokens))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(random_sweeps())
def test_sweep_equals_per_token_on_random_grammars(drawn):
    # Budget 10,000 gives fallbacks on about one grammar in fifty and
    # budget 100 on about one in seven; they must fall on the same tokens
    # however the tokens are swept.
    g, tokens = drawn
    try:
        gnf = to_gnf(g, max_productions=400)
    except (GrammarError, GnfSizeError):
        return
    adj = build_stack_adjacency(gnf)
    for budget in (10_000, 100):
        expected = per_token(tokens, gnf, adj, budget)
        sweep = compute_all_displacements(tokens, gnf, adj, budget)
        assert sweep.displacements == expected
        assert sweep.budget_exceeded == [i for i, d in enumerate(expected) if d is None]
        alone = [compute_all_displacements([t], gnf, adj, budget).displacements[0] for t in tokens]
        assert alone == expected


# The node budget once bounded only the states expanded, not what a step
# builds: on this grammar the last step of "aaa" starts from 62,436 states
# holding 107,042 queues, and the sweep ran out of memory.
BLOWUP = 'n0 ::= n0 n1 | n1 "a" n2 | n0 n0 "a"\nn1 ::= "" | n0\nn2 ::= "" | n0\n'


def test_step_bound_keeps_the_default_budget_within_memory():
    resource = pytest.importorskip("resource")
    assert resource  # the child process sets the limit
    code = textwrap.dedent(
        f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1_200_000_000, 1_200_000_000))
        from cfgzip import (
            build_stack_adjacency, compute_all_displacements, parse_grammar, to_gnf, validate
        )
        gnf = to_gnf(validate(parse_grammar({BLOWUP!r})))
        tokens = [b"a", b"aa", b"aaa", b"aaaa"]
        sweep = compute_all_displacements(tokens, gnf, build_stack_adjacency(gnf))
        print(sweep.budget_exceeded)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[2, 3]"
