import math
import random

import pytest

from rulefst.errors import DataError
from rulefst.metrics import corpus_bleu, corpus_bleu_report


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
    report = corpus_bleu_report([hyp], [[ref]])
    assert report.config["max_n"] == 4
    assert report.config["precisions"][0] == pytest.approx(2 / 7, abs=1e-12)


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
    report = corpus_bleu_report([hyp], [refs])
    # unigrams: a from ref0, b and c from ref1 -> 3/3; bigrams: "b c" -> 1/2
    assert report.config["precisions"][0] == pytest.approx(1.0)
    assert report.config["precisions"][1] == pytest.approx(0.5)


def test_bleu_brevity_penalty_uses_closest_reference():
    hyp = ["a", "b"]
    refs = [[["a", "b", "c", "d", "e"], ["a", "b", "x"]]]
    report = corpus_bleu_report([hyp], refs)
    assert report.config["ref_len"] == 3
    assert report.config["brevity_penalty"] == pytest.approx(math.exp(1 - 3 / 2))


def test_bleu_empty_reference_set_errors():
    with pytest.raises(DataError):
        corpus_bleu([["a"]], [[]])


def test_bleu_length_mismatch_errors():
    with pytest.raises(DataError):
        corpus_bleu([["a"]], [])


def test_report_json_line():
    report = corpus_bleu_report([["a", "b", "c", "d"]], [[["a", "b", "c", "d"]]])
    line = report.to_json_line()
    assert '"metric": "bleu"' in line
