import random

import pytest
from hypothesis import given, strategies as st

from rulefst.errors import DataError
from rulefst.rules import Rule, RuleSet, extract_context, load_rules, match_rules, save_rules
from rulefst.text import tokenize

from conftest import AMBIG_SENTENCE


def brute_force_matches(tokens, rules, w):
    """Oracle: test every rule pattern at every start index."""
    lowered = [t.lower() for t in tokens]
    found = []
    for start in range(len(tokens)):
        for rule in rules:
            end = start + len(rule.pattern)
            if end <= len(tokens) and tuple(lowered[start:end]) == rule.pattern:
                left = tuple(tokens[max(0, start - w) : start])
                right = tuple(tokens[end : end + w])
                found.append((rule.id, start, end, left, right, rule.alternatives))
    return found


def as_tuples(match_set):
    return [
        (m.rule_id, m.start, m.end, m.context_left, m.context_right, m.alternatives)
        for m in match_set
    ]


# ---- loading ---------------------------------------------------------------


def test_load_rules_preserves_order(demo_rules_path):
    rules = load_rules(demo_rules_path)
    assert len(rules) == 2
    assert rules[0].id == "r_extro"
    assert rules[0].pattern == ("extro",)
    assert rules[0].alternatives == (("extra",), ("extrovert",))
    assert rules[1].alternatives == (("introduction",), ("introvert",))


def test_load_rules_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("# just a comment\n\n", encoding="utf-8")
    assert len(load_rules(p)) == 0


def test_load_rules_duplicate_id(tmp_path):
    p = tmp_path / "dup.tsv"
    p.write_text("r1\ta\tb\nr1\tc\td\n", encoding="utf-8")
    with pytest.raises(DataError, match="duplicate rule id"):
        load_rules(p)


def test_load_rules_reports_line_number(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("r1\ta\tb\nnot a rule line\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2"):
        load_rules(p)


def test_load_rules_empty_pattern(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("r1\t \tb\n", encoding="utf-8")
    with pytest.raises(DataError, match="empty pattern"):
        load_rules(p)


def test_rule_duplicate_alternatives_rejected():
    with pytest.raises(DataError, match="duplicate alternatives"):
        Rule("r", ("a",), (("b",), ("b",)))


def test_save_load_round_trip(tmp_path, demo_rules_path):
    rules = load_rules(demo_rules_path)
    out = tmp_path / "saved.tsv"
    save_rules(rules, out)
    assert as_rules_tuple(load_rules(out)) == as_rules_tuple(rules)


def as_rules_tuple(rules):
    return [(r.id, r.pattern, r.alternatives) for r in rules]


# ---- context extraction ----------------------------------------------------


def test_extract_context_basic():
    assert extract_context(list("abcde"), (2, 3), 2) == (("a", "b"), ("d", "e"))


def test_extract_context_boundary_clipping():
    assert extract_context(["a", "b"], (0, 1), 3) == ((), ("b",))


def test_extract_context_zero_window():
    assert extract_context(list("abcde"), (1, 3), 0) == ((), ())


def test_extract_context_out_of_bounds():
    with pytest.raises(ValueError):
        extract_context(["a", "b"], (1, 4), 1)


# ---- matching --------------------------------------------------------------


def test_match_ambiguous_sentence(demo_rules_path):
    rules = load_rules(demo_rules_path)
    tokens = tokenize(AMBIG_SENTENCE)
    ms = match_rules(tokens, rules, w=2)
    assert ms.count == 2
    extro, intro = ms
    assert extro.rule_id == "r_extro"
    assert extro.matched_text == ("extro",)
    assert extro.context_left == ("i", "an")
    assert extro.context_right == (",", "but")
    assert extro.alternatives == (("extra",), ("extrovert",))
    assert intro.rule_id == "r_intro"
    assert intro.context_left == ("a", "big")
    assert intro.context_right == ("actually",)
    assert intro.alternatives == (("introduction",), ("introvert",))


def test_match_empty_tokens(demo_rules_path):
    rules = load_rules(demo_rules_path)
    assert match_rules([], rules, w=2).count == 0


def test_match_case_insensitive_preserves_original():
    rules = RuleSet((Rule("r", ("EXTRO",), (("extra",),)),))
    ms = match_rules(["An", "Extro", "here"], rules, w=1)
    assert ms.count == 1
    assert ms[0].matched_text == ("Extro",)
    assert ms[0].context_left == ("An",)


def test_match_reports_overlaps_and_repeats():
    rules = RuleSet(
        (
            Rule("r_ab", ("a", "b"), (("x",),)),
            Rule("r_b", ("b",), (("y",),)),
        )
    )
    ms = match_rules(["a", "b", "a", "b"], rules, w=0)
    assert [(m.rule_id, m.start) for m in ms] == [
        ("r_ab", 0),
        ("r_b", 1),
        ("r_ab", 2),
        ("r_b", 3),
    ]


# Mixed case on both sides, so the index has to be keyed on the lower-cased
# head token; a small alphabet makes shared heads and overlaps common.
token_strat = st.sampled_from(["a", "b", "c", "d", "aa", "bb", "A", "Bb", "AA", "bB"])
pattern_strat = st.lists(token_strat, min_size=1, max_size=3)


@st.composite
def rules_strat(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    rules = []
    for i in range(n):
        if rules and draw(st.booleans()):
            # The same pattern again under another id, possibly re-cased.
            pattern = draw(st.sampled_from([r.pattern for r in rules]))
            pattern = tuple(t.upper() if draw(st.booleans()) else t for t in pattern)
        else:
            pattern = tuple(draw(pattern_strat))
        alts = draw(
            st.lists(
                st.lists(token_strat, min_size=1, max_size=2).map(tuple),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
        rules.append(Rule(f"r{i}", pattern, tuple(alts)))
    return RuleSet(tuple(rules))


@given(
    st.lists(token_strat, max_size=16),
    rules_strat(),
    st.integers(min_value=0, max_value=3),
)
def test_match_equals_brute_force(tokens, rules, w):
    assert as_tuples(match_rules(tokens, rules, w)) == brute_force_matches(tokens, rules, w)


@given(st.lists(token_strat, max_size=10), rules_strat(), st.integers(min_value=0, max_value=2))
def test_match_window_monotonicity(tokens, rules, w):
    small = match_rules(tokens, rules, w)
    large = match_rules(tokens, rules, w + 1)
    assert [(m.rule_id, m.span, m.alternatives) for m in small] == [
        (m.rule_id, m.span, m.alternatives) for m in large
    ]
    for a, b in zip(small, large):
        assert b.context_left[len(b.context_left) - len(a.context_left) :] == a.context_left
        assert b.context_right[: len(a.context_right)] == a.context_right


@given(
    st.lists(st.lists(token_strat, max_size=10), min_size=1, max_size=3),
    st.lists(rules_strat(), min_size=2, max_size=2),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.booleans()),
        min_size=1,
        max_size=20,
    ),
)
def test_interleaved_calls_equal_brute_force_and_a_repeat_returns_the_same_object(sentences, rule_sets, calls):
    """Several sentences, their case-swapped variants, windows and two rule
    sets, called in any order: each result is the oracle's, and calling again
    with the same arguments returns that very object."""
    for sentence, which, w, swapped in calls:
        tokens = sentences[sentence % len(sentences)]
        if swapped:
            tokens = [t.swapcase() for t in tokens]
        rules = rule_sets[which]
        got = match_rules(tuple(tokens), rules, w)
        assert as_tuples(got) == brute_force_matches(tokens, rules, w)
        assert [m.matched_text for m in got] == [tuple(tokens[m.start : m.end]) for m in got]
        assert match_rules(tokens, rules, w) is got


def test_rule_match_fields_cannot_be_assigned():
    m = match_rules(["an", "extro"], RuleSet((Rule("r", ("extro",), (("extra",),)),)), 1)[0]
    with pytest.raises(AttributeError):
        m.start = 0
    assert m == ("r", 1, 2, ("extro",), ("an",), (), (("extra",),))


def test_match_deterministic(demo_rules_path):
    rules = load_rules(demo_rules_path)
    tokens = tokenize(AMBIG_SENTENCE)
    assert match_rules(tokens, rules, 2) == match_rules(tokens, rules, 2)


def test_match_equals_brute_force_large_dictionary():
    """A seeded 2,000-rule dictionary with overlapping 1-3 token patterns,
    heads shared by several rules and repeated patterns, over sentences
    stitched from pattern pieces so most positions start some match."""
    rng = random.Random(7)
    words = [f"w{i}" for i in range(150)]
    rules, patterns = [], []
    for i in range(2000):
        if patterns and rng.random() < 0.05:
            pattern = rng.choice(patterns)
        else:
            pattern = tuple(rng.choice(words) for _ in range(rng.randint(1, 3)))
        patterns.append(pattern)
        cased = tuple(t.upper() if rng.random() < 0.3 else t for t in pattern)
        rules.append(Rule(f"r{i}", cased, ((f"alt{i}",),)))
    rules = RuleSet(tuple(rules))
    assert max(len(bucket) for bucket in rules.by_head.values()) > 1
    total = 0
    for s in range(20):
        tokens = []
        while len(tokens) < 25:
            piece = rng.choice(patterns)[: rng.randint(1, 3)]
            tokens += [t.capitalize() if rng.random() < 0.3 else t for t in piece]
        w = s % 4
        got = as_tuples(match_rules(tokens, rules, w))
        assert got == brute_force_matches(tokens, rules, w)
        total += len(got)
    assert total > 20 * 25


def test_ruleset_index_ignores_later_changes_to_a_list():
    source = [Rule("r_extro", ("extro",), (("extra",),))]
    rules = RuleSet(source)
    source.append(Rule("r_intro", ("intro",), (("introduction",),)))
    source[0] = Rule("r_other", ("other",), (("x",),))
    assert isinstance(rules.rules, tuple)
    assert [r.id for r in rules] == ["r_extro"]
    tokens = ["an", "extro", "intro", "other"]
    assert as_tuples(match_rules(tokens, rules, 1)) == brute_force_matches(tokens, rules, 1)
    assert [m.rule_id for m in match_rules(tokens, rules, 1)] == ["r_extro"]
