"""The benchmark's workloads: one pipeline pass, three mixes.

A pass takes raw strings to BLEU the way the paper's experiment does:
normalize_tweet -> tokenize -> match_rules -> serialize_example for NR, RB,
RCAT and CARI -> TSV write and read-back -> build_vocab -> train() on CARI ->
beam and greedy decoding of held-out CARI sources -> corpus_bleu. Every
workload runs every stage, so every metric exists on every workload; the
mixes differ in which stage dominates:

pipeline-cari       tens of rules, 4 train steps at B=32, short beam decodes.
                    Training dominates; rules and decoding are light.
decode-long         tens of rules, 1 train step (the model stays at its
                    initialisation, so hypotheses rarely stop at EOS early),
                    beam-4 and greedy decodes at max_len 16..127.
                    The O(L^2) prefix re-decode dominates.
serialize-bigrules  ~2,000 dictionary rules and long slang-heavy sentences,
                    1 train step, a few short decodes. match_rules and
                    serialize dominate; the model does little.

Each workload is a closed loop with one caller. Calls into `rulefst` go
through module attributes (`text.tokenize`, `decoding.beam_decode`) so that
a traced run sees them. Checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from rulefst import metrics, serialize, text
from rulefst.errors import RuleFstError
from rulefst.model import decoding, training
from rulefst.model.seq2seq import ModelConfig, Seq2SeqTransformer
from rulefst.rules import DEFAULT_WINDOW

import checks
from corpus import DENSE_EVERY, Corpus, make_corpus

BATCH = 32
BEAM, FANOUT = 4, 6
DECODE_SLACK = 4  # held-out max_len is the target length plus this


@dataclass(frozen=True)
class Profile:
    n_train: int
    n_valid: int
    n_test: int
    train_steps: int
    big_rules: int = 0
    big_per_sentence: int = 0
    # max_len of each held-out decode, cycled over the test set; empty means
    # the target length plus DECODE_SLACK
    decode_lens: tuple[int, ...] = ()
    learning_rate: float = training.TrainSpec.learning_rate
    greedy: bool = False  # also greedy-decode each held-out source
    dense_every: int = DENSE_EVERY  # every n-th sentence is slang-dense

    @property
    def n_pairs(self) -> int:
        return self.n_train + self.n_valid + self.n_test


PROFILES = {
    "pipeline-cari": Profile(n_train=4 * BATCH, n_valid=16, n_test=16, train_steps=4),
    # One step at a learning rate that leaves the weights at their
    # initialisation, where hypotheses rarely stop at EOS early. Every source
    # is slang-dense, so all CARI inputs fill max_len and a decode's cost
    # depends on its max_len alone.
    "decode-long": Profile(
        n_train=BATCH, n_valid=8, n_test=5, train_steps=1,
        decode_lens=(16, 44, 72, 100, 127), learning_rate=1e-6, greedy=True,
        dense_every=1,
    ),
    "serialize-bigrules": Profile(
        n_train=BATCH, n_valid=8, n_test=4, train_steps=1,
        big_rules=2000, big_per_sentence=4, decode_lens=(16,),
    ),
}

MODEL_MAX_LEN = ModelConfig(vocab_size=7).max_len
CHECKS_PER_PASS = 8  # sentences per pass compared with the reference matcher


def train_spec(profile: Profile, seed: int) -> training.TrainSpec:
    return training.TrainSpec(
        learning_rate=profile.learning_rate, batch_size=BATCH, max_steps=profile.train_steps, seed=seed
    )


@dataclass
class PassResult:
    """What one pass measured and produced."""

    stage_s: dict[str, float] = field(default_factory=dict)
    serialize_sent_s: list[float] = field(default_factory=list)
    beam_call_s: list[float] = field(default_factory=list)
    decode_steps: int = 0
    train_pairs: int = 0
    val_loss: float = math.nan
    bleu: float = math.nan
    vocab_size: int = 0
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # serialization statistics, summed over the serialized sentences
    segments: int = 0
    truncated: dict[str, int] = field(default_factory=dict)
    len_ratio: dict[str, float] = field(default_factory=dict)
    cari_len: int = 0
    target_len: int = 0
    special_ids: int = 0  # [PAD]/[BOS] ids in decoder outputs

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s.values())

    def fingerprint(self) -> tuple:
        """Outputs that must repeat exactly from pass to pass."""
        return (self.val_loss, self.bleu, self.outputs)


def setup(name: str, seed: int) -> Corpus:
    """Generate the corpus and rules, then build a vocabulary over the raw
    tokens and construct and run the model once, so that the first timed pass
    does not pay for numpy's and BLAS's lazy initialisation."""
    p = PROFILES[name]
    corpus = make_corpus(seed, p.n_pairs, p.big_rules, p.big_per_sentence, p.dense_every)
    tokens = [text.tokenize(text.normalize_tweet(raw)) for raw, _ in corpus.pairs]
    vocab = text.build_vocab(tokens)
    ids = np.asarray([vocab.encode(tokens[0])], dtype=np.int64)
    Seq2SeqTransformer(ModelConfig(vocab_size=len(vocab)), seed=seed).forward(ids, ids[:, :1])
    return corpus


def _serialize_all(corpus: Corpus, profile: Profile, pass_index: int, res: PassResult, paused):
    """Normalise, tokenize and serialise every pair with all four methods.

    Returns per-method example lists and the corpus index of each example; a
    sentence that fails is left out and counted as failed."""
    by_method = {m: [] for m in serialize.METHODS}
    kept = []
    res.truncated = {m: 0 for m in serialize.METHODS}
    res.len_ratio = {m: 0.0 for m in serialize.METHODS}
    n = len(corpus.pairs)
    first = pass_index * CHECKS_PER_PASS % n
    checked = {(first + i) % n for i in range(CHECKS_PER_PASS)}
    for i, (raw_src, raw_tgt) in enumerate(corpus.pairs):
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            x = text.tokenize(text.normalize_tweet(raw_src))
            y = text.tokenize(raw_tgt)
            examples = {
                m: serialize.serialize_example(m, x, y, corpus.rules, DEFAULT_WINDOW, MODEL_MAX_LEN)
                for m in serialize.METHODS
            }
        except RuleFstError as e:
            res.failed += 1
            res.problems.append(f"serialize failed: {e}")
            continue
        res.serialize_sent_s.append(time.perf_counter() - t0)
        for m, ex in examples.items():
            by_method[m].append(ex)
            res.truncated[m] += ex.truncated
            res.len_ratio[m] += len(ex.input) / len(x)
        kept.append(i)
        res.segments += examples[serialize.CARI].input.count(text.SEP)
        res.cari_len += len(examples[serialize.CARI].input)
        res.target_len += len(y)
        if i in checked:
            with paused():
                ref = checks.reference_matches(x, corpus.rules, DEFAULT_WINDOW)
                got = serialize.match_rules(x, corpus.rules, DEFAULT_WINDOW)
                res.problems += checks.check_matches(x, corpus.rules, DEFAULT_WINDOW, got)
                res.problems += checks.check_rb(x, ref, examples[serialize.RB].input)
                res.problems += checks.check_cari(x, ref, examples[serialize.CARI])
    return by_method, kept


def _timed(res: PassResult, stage: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    res.stage_s[stage] = res.stage_s.get(stage, 0.0) + time.perf_counter() - t0
    return out


def run_pass(name: str, seed: int, corpus: Corpus, work_dir: str, pass_index: int, paused=None) -> PassResult:
    """One pipeline pass. `paused` is a context manager factory that stops
    tracing around the checks (None when untraced)."""
    profile = PROFILES[name]
    paused = paused or contextlib.nullcontext
    res = PassResult()

    by_method, kept = _serialize_all(corpus, profile, pass_index, res, paused)
    res.stage_s["serialize"] = sum(res.serialize_sent_s)

    # TSV write and read-back of every method's dataset; training uses CARI's.
    read_back = {}
    for m, examples in by_method.items():
        path = os.path.join(work_dir, f"{m}.tsv")
        _timed(res, "tsv", serialize.write_examples_tsv, examples, path)
        read_back[m] = _timed(res, "tsv", serialize.read_examples_tsv, path, m)
        res.problems += checks.check_tsv(examples, read_back[m])
    splits = ([], [], [])
    for i, ex in zip(kept, read_back[serialize.CARI]):
        splits[(i >= profile.n_train) + (i >= profile.n_train + profile.n_valid)].append(ex)
    train_ex, valid_ex, test_ex = splits

    vocab = _timed(res, "vocab", text.build_vocab, [e.input for e in train_ex] + [e.target for e in train_ex])
    encode = lambda exs: [(vocab.encode(e.input), vocab.encode(e.target)) for e in exs]  # noqa: E731
    train_ids, valid_ids, test_ids = (_timed(res, "encode", encode, s) for s in (train_ex, valid_ex, test_ex))

    res.vocab_size = len(vocab)
    config = ModelConfig(vocab_size=len(vocab))
    spec = train_spec(profile, seed)
    res.attempted += spec.max_steps
    try:
        ckpt = _timed(res, "train", training.train, train_ids, valid_ids, config, spec, vocab.content_hash())
    except RuleFstError as e:
        res.failed += spec.max_steps
        res.problems.append(f"train failed: {e}")
        return res
    res.train_pairs = spec.max_steps * spec.batch_size
    losses = [h["val_loss"] for h in ckpt.history]
    res.val_loss = min(losses)
    if not all(math.isfinite(v) for v in losses):
        res.problems.append("non-finite validation loss")
    model = _timed(res, "restore", ckpt.restore_model)

    hyps, refs = [], []
    for i, ((src, tgt), ex) in enumerate(zip(test_ids, test_ex)):
        max_len = profile.decode_lens[i % len(profile.decode_lens)] if profile.decode_lens else len(tgt) + DECODE_SLACK
        for kind in ("beam", "greedy") if profile.greedy else ("beam",):
            res.attempted += 1
            t = time.perf_counter()
            try:
                if kind == "beam":
                    out = decoding.beam_decode(model, src, beam_size=BEAM, fanout=FANOUT, max_len=max_len)
                else:
                    out = decoding.greedy_decode(model, src, max_len=max_len)
            except RuleFstError as e:
                res.failed += 1
                res.problems.append(f"{kind} decode failed: {e}")
                continue
            dt = time.perf_counter() - t
            res.stage_s["decode"] = res.stage_s.get("decode", 0.0) + dt
            # Decoding steps: beam search runs max_len steps whatever it
            # returns (hypotheses that end early are set aside); greedy runs
            # one per output token and one for the EOS that ended it.
            res.decode_steps += max_len if kind == "beam" else len(out) + (len(out) < max_len)
            res.outputs.append(tuple(out))
            with paused():
                res.problems += checks.check_decode(model, src, out, max_len, FANOUT if kind == "beam" else 1)
                res.special_ids += checks.special_ids(out)
                if kind == "beam":
                    res.beam_call_s.append(dt)
                    hyps.append(vocab.decode(out))
                    refs.append([ex.target])
    res.bleu = _timed(res, "bleu", metrics.corpus_bleu, hyps, refs)
    if not 0.0 <= res.bleu <= 100.0:
        res.problems.append(f"BLEU {res.bleu} outside [0, 100]")
    return res
