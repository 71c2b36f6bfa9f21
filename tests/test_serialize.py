import pytest
from hypothesis import given, strategies as st

from rulefst import serialize
from rulefst.errors import DataError
from rulefst.rules import RuleMatch, match_rules
from rulefst.serialize import (
    CARI,
    METHODS,
    NR,
    RB,
    RCAT,
    SerializedExample,
    apply_rules_fcfs,
    read_examples_tsv,
    serialize_example,
    write_examples_tsv,
)
from rulefst.rules import Rule, RuleSet, load_rules
from rulefst.text import SEP, tokenize

from conftest import AMBIG_SENTENCE

X_TOKENS = tokenize(AMBIG_SENTENCE)
# always , always they think i an extro , but im a big intro actually
FCFS_WRONG = tokenize("always, always they think i an extra, but im a big introduction actually")


@pytest.fixture
def rules(demo_rules_path):
    return load_rules(demo_rules_path)


def one_rule(pattern, replacement):
    return RuleSet((Rule("r", tuple(pattern), (tuple(replacement),)),))


# ---- NR --------------------------------------------------------------------


def test_nr_identity(rules):
    ex = serialize_example(NR, ["hello"], ["hello", "."], rules, 2)
    assert ex.input == ("hello",)
    assert ex.target == ("hello", ".")


def test_nr_ambiguous_sentence_unchanged(rules):
    ex = serialize_example(NR, X_TOKENS, [], rules, 2)
    assert ex.input == tuple(X_TOKENS)


@given(st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
def test_nr_is_identity_on_input(x):
    assert serialize_example(NR, x, [], one_rule(["a"], ["b"]), 2).input == tuple(x)


def test_nr_empty_source_rejected(rules):
    with pytest.raises(DataError, match="source sentence is empty"):
        serialize_example(NR, [], ["y"], rules, 2)


# ---- FCFS ------------------------------------------------------------------


def test_fcfs_picks_first_alternatives(rules):
    matches = match_rules(X_TOKENS, rules, w=2)
    assert apply_rules_fcfs(X_TOKENS, matches) == FCFS_WRONG


def test_fcfs_no_matches_is_identity(rules):
    tokens = ["nothing", "to", "change"]
    assert apply_rules_fcfs(tokens, match_rules(tokens, rules, 2)) == tokens


def test_fcfs_overlap_earlier_wins():
    rules = RuleSet(
        (
            Rule("r_ab", ("a", "b"), (("X",),)),
            Rule("r_bc", ("b", "c"), (("Y",),)),
        )
    )
    tokens = ["a", "b", "c"]
    assert apply_rules_fcfs(tokens, match_rules(tokens, rules, 0)) == ["X", "c"]


def test_fcfs_deterministic(rules):
    matches = match_rules(X_TOKENS, rules, w=2)
    assert apply_rules_fcfs(X_TOKENS, matches) == apply_rules_fcfs(X_TOKENS, matches)


# ---- RB / RCAT -------------------------------------------------------------


def test_rb_uses_fcfs_rewrite(rules):
    ex = serialize_example(RB, X_TOKENS, ["y"], rules, 2)
    assert ex.input == tuple(FCFS_WRONG)


def test_rcat_format():
    ex = serialize_example(RCAT, ["u", "ok"], ["y"], one_rule(["u"], ["you"]), 2)
    assert ex.input == ("u", "ok", SEP, "you", "ok")
    assert not ex.truncated


def test_rcat_no_matches_duplicates_source(rules):
    ex = serialize_example(RCAT, ["x", "y"], [], rules, 2)
    assert ex.input == ("x", "y", SEP, "x", "y")


def test_rcat_ambiguous_sentence(rules):
    ex = serialize_example(RCAT, X_TOKENS, [], rules, 2)
    assert ex.input == tuple(X_TOKENS) + (SEP,) + tuple(FCFS_WRONG)


def test_rb_rewrite_past_max_len_is_named_with_both_lengths():
    x = ["a"] * 125 + ["idk"]
    with pytest.raises(DataError, match=r"RB rewrite of 129 tokens \(source of 126\) exceeds max_len=128"):
        serialize_example(RB, x, [], one_rule(["idk"], ["i", "do", "not", "know"]), 3, max_len=128)
    # max_len bounds the rewrite, the model's input, so a source that only
    # fits once rewritten is kept.
    shortening = one_rule(["i", "do", "not", "know"], ["idk"])
    y = ["a"] * 125 + ["i", "do", "not", "know"]
    assert len(serialize_example(RB, y, [], shortening, 3, max_len=128).input) == 126


def test_rcat_truncates_supplement_tail():
    ex = serialize_example(RCAT, ["a", "b"], [], one_rule(["a", "b"], ["c", "d", "e"]), 2, max_len=5)
    assert ex.input == ("a", "b", SEP, "c", "d")
    assert ex.truncated


def test_rcat_source_too_long_errors(rules):
    with pytest.raises(DataError, match="source of 6 tokens exceeds max_len=5"):
        serialize_example(RCAT, ["a"] * 6, [], rules, 2, max_len=5)


# ---- CARI ------------------------------------------------------------------

CARI_W2_SUBSTITUTED = tuple(
    X_TOKENS
    + [SEP, "i", "an", "extra", ",", "but"]
    + [SEP, "i", "an", "extrovert", ",", "but"]
    + [SEP, "a", "big", "introduction", "actually"]
    + [SEP, "a", "big", "introvert", "actually"]
)

CARI_W0 = tuple(X_TOKENS + [SEP, "extra", SEP, "extrovert", SEP, "introduction", SEP, "introvert"])


def test_cari_substituted_w2(rules):
    ex = serialize_example(CARI, X_TOKENS, [], rules, 2)
    assert ex.input == CARI_W2_SUBSTITUTED
    assert not ex.truncated


def test_cari_w0_segments_are_bare_alternatives(rules):
    ex = serialize_example(CARI, X_TOKENS, [], rules, 0)
    assert ex.input == CARI_W0


def test_cari_no_matches_no_sep(rules):
    ex = serialize_example(CARI, ["plain", "words"], [], rules, 2)
    assert ex.input == ("plain", "words")
    assert SEP not in ex.input


def test_cari_segment_count(rules):
    ex = serialize_example(CARI, X_TOKENS, [], rules, 2)
    n_segments = ex.input.count(SEP)
    assert n_segments == sum(len(m.alternatives) for m in match_rules(X_TOKENS, rules, 2))


def test_cari_truncation_drops_whole_tail_segments(rules):
    # room for the source (15 tokens) plus exactly two 6-token segments
    ex = serialize_example(CARI, X_TOKENS, [], rules, 2, max_len=15 + 12)
    assert ex.truncated
    assert ex.input == CARI_W2_SUBSTITUTED[: 15 + 12]
    assert ex.input.count(SEP) == 2


def test_cari_never_truncates_source(rules):
    ex = serialize_example(CARI, X_TOKENS, [], rules, 2, max_len=len(X_TOKENS))
    assert ex.input == tuple(X_TOKENS)
    assert ex.truncated
    with pytest.raises(DataError, match="source of 15 tokens exceeds max_len=14"):
        serialize_example(CARI, X_TOKENS, [], rules, 2, max_len=len(X_TOKENS) - 1)


def test_negative_window_raises_for_every_method(rules, monkeypatch):
    def no_match(*args, **kwargs):
        raise AssertionError("matched with a negative window")

    monkeypatch.setattr(serialize, "match_rules", no_match)
    for method in METHODS:
        with pytest.raises(DataError, match="window size must be >= 0, not -1"):
            serialize_example(method, X_TOKENS, [], rules, -1)


def test_cari_prefix_preserves_source_all_windows(rules):
    for w in range(5):
        ex = serialize_example(CARI, X_TOKENS, [], rules, w)
        head = ex.input[: ex.input.index(SEP)] if SEP in ex.input else ex.input
        assert head == tuple(X_TOKENS)


# ---- dispatch + tsv --------------------------------------------------------


def test_serialize_example_dispatch(rules):
    y = ["anything"]
    for method, expected in [
        ("NR", tuple(X_TOKENS)),
        ("RB", tuple(FCFS_WRONG)),
        ("RCAT", tuple(X_TOKENS) + (SEP,) + tuple(FCFS_WRONG)),
        ("CARI", CARI_W2_SUBSTITUTED),
    ]:
        ex = serialize_example(method, X_TOKENS, y, rules, w=2)
        assert ex.input == expected, method
        assert ex.target == tuple(y)


def test_serialize_example_unknown_method(rules, monkeypatch):
    def no_match(*args, **kwargs):
        raise AssertionError("matched for a method that does not exist")

    monkeypatch.setattr(serialize, "match_rules", no_match)
    with pytest.raises(DataError, match="'XYZ'"):
        serialize_example("XYZ", X_TOKENS, [], rules, w=2)


def test_serialize_example_matches_once_except_for_nr(rules, monkeypatch):
    calls = []

    def counting_match(*args):
        calls.append(args)
        return match_rules(*args)

    monkeypatch.setattr(serialize, "match_rules", counting_match)
    for method in METHODS:
        calls.clear()
        serialize_example(method, X_TOKENS, [], rules, 2)
        assert calls == ([] if method == NR else [(X_TOKENS, rules, 2)]), method


def test_tsv_round_trip(tmp_path, rules):
    examples = [
        serialize_example(CARI, X_TOKENS, ["fine", "."], rules, 2),
        serialize_example(CARI, X_TOKENS, [], rules, 2, max_len=15 + 12),  # truncated, empty target
        serialize_example(NR, ["u", "ok"], ["are", "you", "ok"], rules, 2),
    ]
    path = tmp_path / "data.tsv"
    write_examples_tsv(examples, path)
    loaded = read_examples_tsv(path)
    assert [e.input for e in loaded] == [e.input for e in examples]
    assert [e.target for e in loaded] == [e.target for e in examples]
    assert loaded == examples  # method and truncated too
    write_examples_tsv(examples[:2], path)
    assert read_examples_tsv(path, CARI) == examples[:2]


def test_tsv_refuses_a_method_other_than_the_file_s(tmp_path):
    path = tmp_path / "nr.tsv"
    write_examples_tsv([SerializedExample(NR, ("u",), ("you",))], path)
    with pytest.raises(DataError, match=":1: method NR, expected CARI"):
        read_examples_tsv(path, CARI)


@pytest.mark.parametrize("line", ["a\tb\tXYZ\t0", "a\tb\tNR\tyes", "a\tb", "a\tb\tNR", "a\tb\tNR\t0\tz"])
def test_tsv_malformed_lines_raise_with_the_line_number(tmp_path, line):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tNR\t0\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        read_examples_tsv(path)


def test_tsv_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tb\tNR\t0\n\xff\xfe\tb\tNR\t0\n")
    with pytest.raises(DataError, match=r"bad\.tsv: not valid UTF-8: "):
        read_examples_tsv(path)


@pytest.mark.parametrize("tokens", [("a b",), ("",), ("a\tb",), ("a\n",)])
def test_tsv_refuses_tokens_that_would_not_read_back(tmp_path, tokens):
    with pytest.raises(DataError, match="example 0"):
        write_examples_tsv([SerializedExample(NR, ("x",), tokens)], tmp_path / "x.tsv")


def test_tsv_refuses_an_unknown_method_before_writing(tmp_path):
    path = tmp_path / "x.tsv"
    examples = [SerializedExample(NR, ("x",), ("y",)), SerializedExample("cari", ("x",), ("y",))]
    with pytest.raises(DataError, match="example 1: unknown serialization method 'cari'"):
        write_examples_tsv(examples, path)
    assert not path.exists()


# ---- properties --------------------------------------------------------------

WORDS = st.sampled_from(["a", "b", "c", "D"])
PHRASES = st.lists(WORDS, min_size=1, max_size=3).map(tuple)


@st.composite
def sentences_and_rules(draw):
    patterns = draw(st.lists(PHRASES, min_size=1, max_size=6))
    rule_list = [
        Rule(f"r{i}", p, tuple(draw(st.lists(PHRASES, min_size=1, max_size=3, unique=True))))
        for i, p in enumerate(patterns)
    ]
    x = draw(st.lists(WORDS, min_size=1, max_size=12))
    return x, RuleSet(tuple(rule_list)), draw(st.integers(0, 3))


def quadratic_fcfs(x, matches):
    """Reference FCFS: a match is skipped when it overlaps any rewrite
    applied so far, so equality also shows that no two rewrites overlap."""
    applied = []
    for m in matches:
        if any(m.start < end and start < m.end for start, end, _ in applied):
            continue
        applied.append((m.start, m.end, m.alternatives[0]))
    out, pos = [], 0
    for start, end, replacement in applied:
        out.extend(x[pos:start])
        out.extend(replacement)
        pos = end
    out.extend(x[pos:])
    return out


@given(sentences_and_rules())
def test_fcfs_never_applies_overlapping_rewrites(case):
    x, rule_set, w = case
    matches = match_rules(x, rule_set, w)
    assert apply_rules_fcfs(x, matches) == quadratic_fcfs(x, matches)


@st.composite
def overlapping_match_sets(draw):
    """A sentence and matches of 1-4 tokens at random starts, sorted by start
    as match_rules sorts them, so that they nest, overlap and repeat."""
    n = draw(st.integers(1, 14))
    x = [f"t{i}" for i in range(n)]
    spans = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 4)), max_size=10))
    spans = sorted(((start, min(start + length, n)) for start, length in spans), key=lambda span: span[0])
    matches = [
        RuleMatch(f"r{i}", start, end, tuple(x[start:end]), (), (), ((f"alt{i}",), ("other",)))
        for i, (start, end) in enumerate(spans)
    ]
    return x, tuple(matches)


@given(overlapping_match_sets())
def test_fcfs_equals_the_quadratic_reference_on_overlapping_match_sets(case):
    x, matches = case
    assert apply_rules_fcfs(x, matches) == quadratic_fcfs(x, matches)


@given(sentences_and_rules(), st.one_of(st.none(), st.integers(12, 40)))
def test_cari_segments_appear_in_order_and_go_missing_only_when_truncated(case, max_len):
    x, rule_set, w = case
    matches = match_rules(x, rule_set, w)
    ex = serialize_example(CARI, x, [], rule_set, w, max_len)
    expected = [m.context_left + alt + m.context_right for m in matches for alt in m.alternatives]
    assert ex.input[: len(x)] == tuple(x)
    segments, rest = [], ex.input[len(x) :]
    while rest:
        assert rest[0] == SEP
        nxt = rest.index(SEP, 1) if SEP in rest[1:] else len(rest)
        segments.append(rest[1:nxt])
        rest = rest[nxt:]
    assert segments == expected[: len(segments)]
    assert (len(segments) < len(expected)) == ex.truncated
    if max_len is not None:
        assert len(ex.input) <= max_len
        if ex.truncated:  # the first missing segment would not have fitted
            assert len(ex.input) + 1 + len(expected[len(segments)]) > max_len


@given(sentences_and_rules())
def test_nr_rb_and_rcat_inputs_are_the_source_and_its_fcfs_rewrite(case):
    x, rule_set, w = case
    rewrite = tuple(apply_rules_fcfs(x, match_rules(x, rule_set, w)))
    for max_len in (None, *range(1, len(rewrite) + len(x) + 3)):
        source_fits = max_len is None or len(x) <= max_len

        if source_fits:
            assert serialize_example(NR, x, [], rule_set, w, max_len).input == tuple(x)
        else:
            with pytest.raises(DataError, match=f"source of {len(x)} tokens exceeds max_len={max_len}"):
                serialize_example(NR, x, [], rule_set, w, max_len)

        if max_len is None or len(rewrite) <= max_len:
            assert serialize_example(RB, x, [], rule_set, w, max_len).input == rewrite
        else:
            with pytest.raises(DataError, match=rf"RB rewrite of {len(rewrite)} tokens \(source of {len(x)}\)"):
                serialize_example(RB, x, [], rule_set, w, max_len)

        if not source_fits:
            with pytest.raises(DataError, match=f"source of {len(x)} tokens exceeds max_len={max_len}"):
                serialize_example(RCAT, x, [], rule_set, w, max_len)
            continue
        ex = serialize_example(RCAT, x, [], rule_set, w, max_len)
        assert ex.input[: len(x)] == tuple(x)
        supplement = ex.input[len(x) + 1 :]
        assert ex.input[len(x) :] == ((SEP,) + supplement if supplement else ())
        assert supplement == rewrite[: len(supplement)]
        assert ex.truncated == (len(supplement) < len(rewrite))
        if ex.truncated:  # the prefix fills the room after the source and [SEP]
            assert len(supplement) == max(max_len - len(x) - 1, 0)
        if max_len is not None:
            assert len(ex.input) <= max_len
