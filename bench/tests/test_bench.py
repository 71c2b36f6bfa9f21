"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, aggregate  # noqa: E402

from rulefst.rules import DEFAULT_WINDOW, match_rules  # noqa: E402
from rulefst.text import normalize_tweet, tokenize  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ---- generator -------------------------------------------------------------


@pytest.mark.parametrize("big", [0, 300])
def test_generator_is_deterministic_per_seed(big):
    a = corpus.make_corpus(7, 40, big, 3)
    assert a == corpus.make_corpus(7, 40, big, 3)
    b = corpus.make_corpus(8, 40, big, 3)
    assert a.pairs != b.pairs
    if big:
        assert a.rules != b.rules


def test_cue_word_sits_inside_the_context_window():
    c = corpus.make_corpus(3, 60)
    cues = {cue: tok for tok, senses in corpus.AMBIGUOUS.items() for _, cs in senses for cue in cs}
    for raw, _ in c.pairs:
        x = tokenize(normalize_tweet(raw))
        for i, t in enumerate(x):
            if t in corpus.AMBIGUOUS:
                window = x[max(0, i - DEFAULT_WINDOW) : i] + x[i + 1 : i + 1 + DEFAULT_WINDOW]
                assert any(cues.get(w) == t for w in window), (t, x)


def test_large_dictionary_has_multi_token_and_overlapping_patterns():
    rules = corpus.make_corpus(1, 1, 2000).rules
    sizes = [len(r.pattern) for r in rules]
    assert len(rules) > 2000 and {1, 2, 3} <= set(sizes)
    singles = {r.pattern[0] for r in rules if len(r.pattern) == 1}
    assert any(len(r.pattern) > 1 and r.pattern[0] in singles for r in rules)


# ---- reference matcher -----------------------------------------------------


@pytest.mark.parametrize("big", [0, 500])
def test_reference_matcher_agrees_with_match_rules(big):
    c = corpus.make_corpus(11, 30, big, 4)
    total = 0
    for raw, _ in c.pairs:
        x = tokenize(normalize_tweet(raw))
        got = checks.as_tuples(match_rules(x, c.rules, DEFAULT_WINDOW))
        assert got == checks.reference_matches(x, c.rules, DEFAULT_WINDOW)
        total += len(got)
    assert total > len(c.pairs)


def test_checks_report_a_wrong_rewrite():
    c = corpus.make_corpus(2, 5)
    x = tokenize(normalize_tweet(c.pairs[0][0]))
    ref = checks.reference_matches(x, c.rules, DEFAULT_WINDOW)
    assert ref
    assert checks.check_rb(x, ref, x + ["extra"])


def test_decode_oracle_accepts_the_decoders_and_refuses_other_tokens():
    from rulefst.model import decoding
    from rulefst.model.seq2seq import ModelConfig, Seq2SeqTransformer

    model = Seq2SeqTransformer(ModelConfig(vocab_size=40), seed=3)
    src = [7, 8, 9, 10, 11]
    beam = decoding.beam_decode(model, src, beam_size=2, fanout=3, max_len=6)
    greedy = decoding.greedy_decode(model, src, max_len=6)
    assert checks.check_decode(model, src, beam, 6, 3) == []
    assert checks.check_decode(model, src, greedy, 6, 1) == []
    logits = model.forward(np.asarray([src]), np.asarray([[1]]))[0, 0]
    worst = int(np.argmin(logits))
    assert checks.check_decode(model, src, [worst], 6, 3)  # outside the top 3
    assert checks.check_decode(model, src, [7] * 7, 6, 1)  # longer than max_len
    assert checks.check_decode(model, src, [40], 6, 3)  # out of range
    assert checks.special_ids([0, 1, 2, 7]) == 2


# ---- spans -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 1.5, 2.5, 1),
        Span("a", 5.0, 6.0, 0),
        Span("b", 7.0, 9.5, 0),
    ]
    agg = aggregate(spans)
    assert agg["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.5}
    assert agg["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert agg["leaf"]["self_s"] == 1.0
    assert agg["b"]["self_s"] == 2.5


def test_patches_are_restored():
    from rulefst.model import layers, seq2seq
    from spans import Tracer

    before = (layers.softmax, seq2seq.softmax, layers.Dense.forward)
    tracer = Tracer()
    instrument.instrument(tracer)
    assert seq2seq.softmax is layers.softmax is not before[0]
    tracer.restore()
    assert (layers.softmax, seq2seq.softmax, layers.Dense.forward) == before


# ---- the command -----------------------------------------------------------


def test_metric_lists_match_benchmark_json():
    s = spec()
    assert [m["name"] for m in s["per_layer"]] == [n for n, _ in instrument.per_layer_names()]
    assert sorted(w["name"] for w in s["workloads"]) == sorted(workloads.PROFILES)


def tiny(profile):
    return dataclasses.replace(
        profile, n_train=32, n_valid=4, n_test=2, train_steps=1,
        big_rules=min(profile.big_rules, 200), decode_lens=profile.decode_lens[:2],
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.PROFILES))
def test_smoke_run(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.PROFILES, name, tiny(workloads.PROFILES[name]))
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["rules.match_calls_per_sent"]["value"] == 3.0
        assert result["metrics"]["decoding.decoder_positions"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-cari", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
