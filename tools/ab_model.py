"""Paired timing of two checkouts' model in one process: a parent and a change.

    python3 tools/ab_model.py PARENT_DIR CHANGE_DIR [--rounds N]

Each checkout's `rulefst` is imported from its `src/` into this one process
under module objects of its own: the `rulefst` entries of sys.modules are
swapped out around each import and restored after it. Both sides then run on
the same interpreter, the same BLAS (on one thread) and the same inputs. The
parameters, batches and sources come from the fixed SEED, so every run times
the same work; every model has the default ModelConfig shapes and VOCAB ids.

Training batches: for each of SHAPES, BATCHES batches of BATCH pairs whose
ids are drawn above the reserved ones. Each length is drawn from a normal
distribution, rounded and clipped to 1..MAX_TOKENS: source lengths from
SHAPES, target lengths from TARGET, before the [BOS] and [EOS] that
`make_batch` adds. Their means and standard deviations are those of the NR
and CARI inputs and of the targets that `bench/corpus.py` gives at seed 1
for 3,000 pairs without slang-dense sentences: 17.5, 58.7 and 17.1 tokens.

Check first: for each shape and batch, a model of the parent's code and one
of the change's, both with the parameters of the parent's model at SEED and
with dropout 0, run `loss_and_grads`. Their losses and every gradient must
agree within RTOL relative (a gradient's largest difference against its
largest magnitude): a change that cuts the batch differently sums in another
order. If not, the run stops with exit status 1, naming the shape, the batch
and the first parameter that differs. The report says whether they were
bit-equal. Then such models with the default dropout, each built at SEED so
that both sides draw the same dropout stream, run one `loss_and_grads` per
shape and batch; the report says whether those were bit-equal too, and this
check does not stop the run. Last, `Seq2SeqTransformer.loss`, the scoring
loss without gradients, must be bit-equal on every shape and batch, or the
run stops with exit status 1, naming the shape and the batch.

Then each round times four rows on both sides; which side runs first
alternates from round to round:
- NR and CARI: STEPS training steps over that shape's batches in turn. A
  step is `loss_and_grads` with the default dropout plus `Adam.step`, on one
  model and optimizer per side and shape that start from the parameters
  above and carry over from round to round.
- beam and greedy: every one of SOURCES random sources of SRC_LEN ids,
  decoded with beam BEAM / fanout FANOUT, or greedily, to at most MAX_LEN
  ids, by a model whose parameters are the ones above moved by seeded
  N(0, NOISE) noise, so that its scores are not the near-uniform ones of
  initialisation. Both sides must give equal ids on every source: if not,
  the run stops with exit status 1, naming the row, the round and the source.

Each side's work is timed in wall seconds (`time.perf_counter`) and in CPU
seconds of this process (`time.process_time`), which a loaded host disturbs
less. Each row and clock gets one `ab_bench.row` on those seconds per round,
lower being better, against the bound that PARENT_DIR's BENCHMARK.json gives
the row's benchmark metric: train_pairs_per_s, the benchmark's training
throughput, or decode_sent_ms_p50, its decode time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from ab_bench import COLUMNS, row  # noqa: E402

SEED = 0
VOCAB = 364
SHAPES = {"NR": (17.5, 2.8), "CARI": (58.7, 13.7)}  # source length: mean, standard deviation
TARGET = (17.1, 3.1)
MAX_TOKENS = 126  # a target of this many fits the default max_len with [BOS] or [EOS]
BATCHES, BATCH, STEPS = 4, 32, 4
RTOL = 1e-5
NOISE = 0.15  # the spread that the default-shape decode oracle in tests/test_decoding.py gives its model
SOURCES, SRC_LEN, MAX_LEN = 3, 127, 127
BEAM, FANOUT = 4, 6  # the benchmark's beam decodes
BOUND_METRICS = {**dict.fromkeys(SHAPES, "train_pairs_per_s"),
                 **dict.fromkeys(("beam", "greedy"), "decode_sent_ms_p50")}


def load(checkout: str):
    """The `rulefst` package of `checkout`/src, imported under its own module
    objects; whatever `rulefst` modules were loaded before stay loaded."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "rulefst", "__init__.py")):
        raise SystemExit(f"ab_model: {checkout} has no src/rulefst package")

    def ours(name):
        return name == "rulefst" or name.startswith("rulefst.")

    saved = {name: sys.modules.pop(name) for name in [n for n in sys.modules if ours(n)]}
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("rulefst")
        importlib.import_module("rulefst.model")
        return package
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def batches(package, source: tuple[float, float], rng: np.random.Generator) -> list[tuple]:
    """BATCHES padded (src, tgt_in, tgt_out) batches of BATCH pairs, with
    source lengths of `source`'s mean and standard deviation."""
    first_id = len(package.text.SPECIAL_TOKENS)

    def ids(mean, sd):
        length = min(max(round(rng.normal(mean, sd)), 1), MAX_TOKENS)
        return rng.integers(first_id, VOCAB, size=length).tolist()

    return [package.model.make_batch([(ids(*source), ids(*TARGET)) for _ in range(BATCH)]) for _ in range(BATCHES)]


def model(package, params, dropout: float):
    """A model of `package`'s code, default shapes but `dropout`, holding
    `params`."""
    model_mod = package.model
    m = model_mod.Seq2SeqTransformer(model_mod.ModelConfig(vocab_size=VOCAB, dropout=dropout), seed=SEED)
    m.store.load(params)
    return m


def compare(packages, params, shape, batch_list, dropout: float) -> tuple[str | None, bool]:
    """(the first disagreement beyond RTOL, or None; whether every loss and
    gradient was bit-equal) of both sides' `loss_and_grads` at `dropout`."""
    bit_equal = True
    for i, batch in enumerate(batch_list):
        out = {}
        for side, package in packages.items():
            m = model(package, params, dropout)
            out[side] = m.loss_and_grads(*batch), m.store.grads
        (p_loss, _), p_grads = out["parent"]
        (c_loss, _), c_grads = out["change"]
        where = f"{shape} batch {i}"
        if abs(c_loss - p_loss) > RTOL * abs(p_loss):
            return f"{where}: loss {c_loss!r} against the parent's {p_loss!r}", False
        if set(p_grads) != set(c_grads):
            return f"{where}: gradients of other parameters", False
        bit_equal &= c_loss == p_loss
        for name, p in p_grads.items():
            c = c_grads[name]
            diff = float(np.max(np.abs(c - p)))
            if diff > RTOL * float(np.max(np.abs(p))):
                return f"{where}: gradient of {name} differs by {diff:.3g} (largest magnitude " \
                       f"{float(np.max(np.abs(p))):.3g})", False
            bit_equal &= diff == 0.0
    return None, bit_equal


def trainer(package, params, batch_list):
    """A function of the round that runs STEPS training steps of one model
    and optimizer of `package`'s code, which start from `params` and carry
    over from round to round, over `batch_list` in turn."""
    model_mod = package.model
    m = model(package, params, model_mod.ModelConfig.dropout)
    opt = model_mod.Adam(m.store, model_mod.TrainSpec.learning_rate)

    def train(r):
        for step in range(STEPS):
            m.loss_and_grads(*batch_list[(r * STEPS + step) % len(batch_list)])
            opt.step()

    return train


def work(package, params, decode_params, data, sources) -> dict:
    """Row name -> a function of the round that runs that row's work once
    with `package`'s code and returns what both sides must agree on."""
    model_mod = package.model
    rows = {shape: trainer(package, params, batch_list) for shape, batch_list in data.items()}
    m = model(package, decode_params, 0.0)
    rows["beam"] = lambda r: [model_mod.beam_decode(m, s, beam_size=BEAM, fanout=FANOUT, max_len=MAX_LEN)
                              for s in sources]
    rows["greedy"] = lambda r: [model_mod.greedy_decode(m, s, max_len=MAX_LEN) for s in sources]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    packages = {"parent": load(args.parent), "change": load(args.change)}
    parent = packages["parent"]
    params = parent.model.Seq2SeqTransformer(parent.model.ModelConfig(vocab_size=VOCAB), seed=SEED).store.values
    rng = np.random.default_rng(SEED)
    data = {shape: batches(parent, source, rng) for shape, source in SHAPES.items()}
    decode_params = {k: v + rng.normal(0.0, NOISE, size=v.shape).astype(v.dtype) for k, v in params.items()}
    sources = rng.integers(len(parent.text.SPECIAL_TOKENS), VOCAB, size=(SOURCES, SRC_LEN)).tolist()

    bit_equal = True
    for shape, batch_list in data.items():
        problem, equal = compare(packages, params, shape, batch_list, 0.0)
        if problem:
            print(f"ab_model: loss or gradients differ with dropout 0 on {problem}", file=sys.stderr)
            return 1
        bit_equal &= equal
    dropout = parent.model.ModelConfig.dropout
    dropout_equal = all(compare(packages, params, shape, batch_list, dropout)[1]
                        for shape, batch_list in data.items())
    for shape, batch_list in data.items():
        for i, batch in enumerate(batch_list):
            p, c = (model(packages[side], params, 0.0).loss(*batch)[0] for side in ("parent", "change"))
            if c != p:
                print(f"ab_model: loss differs on {shape} batch {i}: {c!r} against the parent's {p!r}",
                      file=sys.stderr)
                return 1

    rows = {side: work(package, params, decode_params, data, sources) for side, package in packages.items()}
    clocks = ("wall", "cpu")
    seconds = {(clock, side, name): [] for clock in clocks for side in packages for name in BOUND_METRICS}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in BOUND_METRICS:
            outputs = {}
            for side in order:
                start, cpu = time.perf_counter(), time.process_time()
                outputs[side] = rows[side][name](r)
                seconds["wall", side, name].append(time.perf_counter() - start)
                seconds["cpu", side, name].append(time.process_time() - cpu)
            if outputs["parent"] != outputs["change"]:
                i, p, c = next((i, p, c) for i, (p, c) in enumerate(zip(outputs["parent"], outputs["change"]))
                               if p != c)
                print(f"ab_model: {name} ids differ in round {r} on source {i}:\n  parent {p}\n  change {c}",
                      file=sys.stderr)
                return 1
        print(json.dumps({"round": r, **{f"{side}_{name}_{clock}_s": round(seconds[clock, side, name][-1], 4)
                                         for clock in clocks for side in packages for name in BOUND_METRICS}}),
              flush=True)

    agreement = "bit-equal" if bit_equal else f"equal within {RTOL:g} relative, not bit-equal"
    print(f"{args.rounds} rounds, vocab {VOCAB}, seed {SEED}")
    print(f"training: {STEPS} steps per round over {BATCHES} batches of {BATCH} pairs per shape; "
          f"scoring loss bit-equal; dropout-0 loss and gradients {agreement}; "
          f"default-dropout ({dropout:g}) loss and gradients "
          f"{'bit-equal' if dropout_equal else 'not bit-equal'}")
    print(f"decoding: {SOURCES} sources of {SRC_LEN} ids, max_len {MAX_LEN}, beam {BEAM} / fanout {FANOUT} "
          f"and greedy: equal ids on every source")
    metrics = " and ".join(f"{m} ({bounds[m]:g})" for m in dict.fromkeys(BOUND_METRICS.values()))
    print(f"verdicts against the bounds of {metrics} in {args.parent}/BENCHMARK.json")
    print(f"{'row':24s} {COLUMNS}")
    for clock in clocks:
        for name, metric in BOUND_METRICS.items():
            print(row(f"{name} {clock}", seconds[clock, "parent", name], seconds[clock, "change", name],
                      "lower", bounds[metric]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
