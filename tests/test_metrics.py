import math
import random

import pytest

from rulefst.errors import DataError
from rulefst.metrics import MAX_N, bleu_statistics, corpus_bleu


def oracle_bleu(hyps, ref_sets, max_n=4):
    """Brute-force reimplementation: explicit n-gram scans, no Counters."""
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, refs in zip(hyps, ref_sets):
        hyp_len += len(hyp)
        best = None
        for r in refs:
            key = (abs(len(r) - len(hyp)), len(r))
            if best is None or key < best:
                best = key
        ref_len += best[1]
        for n in range(1, max_n + 1):
            hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            for ng in set(hyp_ngrams):
                count = hyp_ngrams.count(ng)
                max_ref = 0
                for r in refs:
                    ref_ngrams = [tuple(r[i : i + n]) for i in range(len(r) - n + 1)]
                    max_ref = max(max_ref, ref_ngrams.count(ng))
                matches[n - 1] += min(count, max_ref)
            totals[n - 1] += len(hyp_ngrams)
    precisions = []
    for n in range(max_n):
        if totals[n] == 0 or matches[n] == 0:
            return 0.0
        precisions.append(matches[n] / totals[n])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


def random_sentence(rng, lo=4, hi=12):
    return [rng.choice("abcdefgh") for _ in range(rng.randint(lo, hi))]


# ---- BLEU ------------------------------------------------------------------


def test_bleu_identity_is_exactly_100():
    hyps = [["the", "cat", "sat"], ["a", "dog", "barked", "loudly"]]
    assert corpus_bleu(hyps, [[h] for h in hyps]) == 100.0


def test_bleu_clipped_unigram_precision():
    hyp = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    stats = bleu_statistics([hyp], [[ref]])
    assert MAX_N == len(stats["matches"]) == len(stats["totals"]) == 4
    assert stats["matches"][0] / stats["totals"][0] == pytest.approx(2 / 7, abs=1e-12)


def test_bleu_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 5)
        hyps = [random_sentence(rng) for _ in range(n)]
        refs = [
            [random_sentence(rng) for _ in range(rng.randint(1, 4))]
            for _ in range(n)
        ]
        # Bias some hypotheses toward their references so precision > 0 sometimes.
        for i in range(n):
            if rng.random() < 0.6:
                hyps[i] = list(refs[i][0])
                if rng.random() < 0.5 and len(hyps[i]) > 4:
                    hyps[i][2] = "zz"
        assert corpus_bleu(hyps, refs) == pytest.approx(oracle_bleu(hyps, refs), abs=1e-6)


def test_bleu_permutation_invariant():
    rng = random.Random(3)
    hyps = [random_sentence(rng) for _ in range(6)]
    refs = [[random_sentence(rng), list(h)] for h in hyps]
    score = corpus_bleu(hyps, refs)
    order = list(range(6))
    rng.shuffle(order)
    assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == score


def test_bleu_adding_hypothesis_as_reference_never_hurts():
    rng = random.Random(11)
    hyps = [random_sentence(rng) for _ in range(5)]
    refs = [[random_sentence(rng)] for _ in range(5)]
    base = corpus_bleu(hyps, refs)
    fattened = [r + [list(h)] for r, h in zip(refs, hyps)]
    assert corpus_bleu(hyps, fattened) >= base


def test_bleu_multi_reference_clipping():
    hyp = ["a", "b", "c"]
    refs = [["a", "x", "y"], ["z", "b", "c"]]
    stats = bleu_statistics([hyp], [refs])
    # unigrams: a from ref0, b and c from ref1 -> 3/3; bigrams: "b c" -> 1/2
    assert stats["matches"][:2] == [3, 1]
    assert stats["totals"][:2] == [3, 2]


def test_bleu_brevity_penalty_uses_closest_reference():
    hyp = ["a", "b"]
    refs = [[["a", "b", "c", "d", "e"], ["a", "b", "x"]]]
    assert bleu_statistics([hyp], refs)["ref_len"] == 3
    # Every precision is 1 here, so BLEU is 100 times the penalty of the
    # 5-token reference, the closer one to the 4-token hypothesis.
    hyp = ["a", "b", "c", "d"]
    refs = [[["a", "b", "c", "d", "e", "f", "g", "h"], ["a", "b", "c", "d", "x"]]]
    assert bleu_statistics([hyp], refs)["ref_len"] == 5
    assert corpus_bleu([hyp], refs) == pytest.approx(100.0 * math.exp(1 - 5 / 4))


def test_bleu_empty_reference_set_errors():
    with pytest.raises(DataError, match="^reference set 0 is empty$"):
        corpus_bleu([["a"]], [[]])
    with pytest.raises(DataError, match="^reference set 1 is empty$"):
        corpus_bleu([["a"], ["b"]], [[["a"]], []])


def test_bleu_length_mismatch_errors():
    with pytest.raises(DataError):
        corpus_bleu([["a"]], [])


SENTENCE = "the cat sat on the mat"
TOKENS = SENTENCE.split()


@pytest.mark.parametrize(
    "hypotheses, reference_sets, message",
    [([SENTENCE], [[SENTENCE]], "hypothesis 0 is a string"),
     ([TOKENS, SENTENCE], [[TOKENS], [TOKENS]], "hypothesis 1 is a string"),
     ([TOKENS], [SENTENCE], "reference 0 of set 0 is a string"),
     ([TOKENS, TOKENS], [[TOKENS], [TOKENS, SENTENCE]], "reference 1 of set 1 is a string")],
    ids=["both-strings", "hypothesis", "reference-set", "reference"],
)
def test_bleu_refuses_a_string_where_tokens_belong(hypotheses, reference_sets, message):
    """A string would be scored as a sequence of characters."""
    with pytest.raises(DataError, match=message):
        corpus_bleu(hypotheses, reference_sets)

