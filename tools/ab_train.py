"""Paired training-step timing of two checkouts in one process: a parent and a change.

    python3 tools/ab_train.py PARENT_DIR CHANGE_DIR [--rounds N] [--steps N]
        [--batches N] [--batch B] [--vocab V]

Both checkouts' `rulefst` packages are imported into this one process by
`ab_decode.load`, so both sides run on the same interpreter, the same BLAS
(on one thread) and the same inputs.

The batches come from the fixed SEED, at the shapes of a B=32, V=364 grid
of the paper's serialisations: for each shape, --batches batches of --batch
pairs whose ids are drawn above the reserved ones. Each length is drawn
from a normal distribution, rounded and clipped to 1..MAX_TOKENS: source
lengths from SHAPES, target lengths from TARGET, before the [BOS] and [EOS]
that `make_batch` adds. Their means and standard deviations are those of the
NR and CARI inputs and of the targets that `bench/corpus.py` gives at seed 1
for 3,000 pairs without slang-dense sentences: 17.5, 58.7 and 17.1 tokens.

Check first: for each shape and batch, a model of the parent's code and one
of the change's, both with the parameters of the parent's default-shape
model at SEED and with dropout 0, run `loss_and_grads`. Their losses and
every gradient must agree within RTOL relative (a gradient's largest
difference against its largest magnitude): a change that cuts the batch
differently sums in another order. If not, the run stops with exit status
1, naming the shape, the batch and the first parameter that differs. The
report says whether they were bit-equal. Then such models with the default
dropout, each built at SEED so that both sides draw the same dropout
stream, run one `loss_and_grads` per shape and batch; the report says
whether those losses and gradients were bit-equal too, and this check does
not stop the run.

Then each round runs, for each shape and on each side, --steps training
steps over that shape's batches in turn; which side runs first alternates
from round to round. A step is `loss_and_grads` with the default dropout
plus `Adam.step`, on one model and optimizer per side and shape that start
from the same parameters and carry over from round to round. Each side's
steps are timed in wall seconds (`time.perf_counter`) and in CPU seconds of
this process (`time.process_time`), which a loaded host disturbs less. For
each shape and clock the report gives each side's quartiles of its seconds
per round, the median over rounds of change / parent, the change's wins
(ties count for neither) and `ab_bench.verdict` on those seconds against
the bound that PARENT_DIR's BENCHMARK.json gives train_pairs_per_s, the
benchmark's training throughput.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from ab_decode import load  # sets BLAS to one thread before numpy loads

import numpy as np

from ab_bench import quartiles, verdict

SEED = 0
SHAPES = {"NR": (17.5, 2.8), "CARI": (58.7, 13.7)}  # source length: mean, standard deviation
TARGET = (17.1, 3.1)
MAX_TOKENS = 126  # a target of this many fits the default max_len with [BOS] or [EOS]
RTOL = 1e-5
BOUND_METRIC = "train_pairs_per_s"


def batches(package, args, source: tuple[float, float], rng: np.random.Generator) -> list[tuple]:
    """--batches padded (src, tgt_in, tgt_out) batches of --batch pairs, with
    source lengths of `source`'s mean and standard deviation."""
    first_id = len(package.text.SPECIAL_TOKENS)

    def ids(mean, sd):
        length = min(max(round(rng.normal(mean, sd)), 1), MAX_TOKENS)
        return rng.integers(first_id, args.vocab, size=length).tolist()

    return [package.model.make_batch([(ids(*source), ids(*TARGET)) for _ in range(args.batch)])
            for _ in range(args.batches)]


def model(package, params, dropout: float):
    """A model of `package`'s code, default shapes but `dropout`, holding
    `params`."""
    model_mod = package.model
    config = model_mod.ModelConfig(vocab_size=len(params["out.bias"]), dropout=dropout)
    m = model_mod.Seq2SeqTransformer(config, seed=SEED)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--batches", type=int, default=4)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--vocab", type=int, default=364)
    args = parser.parse_args(argv)
    if min(args.rounds, args.steps, args.batches, args.batch) < 1:
        parser.error("--rounds, --steps, --batches and --batch must be at least 1")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        (bound,) = [m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == BOUND_METRIC]

    packages = {"parent": load(args.parent), "change": load(args.change)}
    parent = packages["parent"]
    if args.vocab <= len(parent.text.SPECIAL_TOKENS):
        parser.error("--vocab must exceed the reserved tokens")
    params = parent.model.Seq2SeqTransformer(parent.model.ModelConfig(vocab_size=args.vocab), seed=SEED).store.values
    rng = np.random.default_rng(SEED)
    data = {shape: batches(parent, args, source, rng) for shape, source in SHAPES.items()}

    bit_equal = True
    for shape, batch_list in data.items():
        problem, equal = compare(packages, params, shape, batch_list, 0.0)
        if problem:
            print(f"ab_train: loss or gradients differ with dropout 0 on {problem}", file=sys.stderr)
            return 1
        bit_equal &= equal
    dropout = parent.model.ModelConfig.dropout
    dropout_equal = all(compare(packages, params, shape, batch_list, dropout)[1]
                        for shape, batch_list in data.items())

    trainers = {}
    for side, package in packages.items():
        for shape in SHAPES:
            m = model(package, params, package.model.ModelConfig.dropout)
            trainers[side, shape] = m, package.model.Adam(m.store, package.model.TrainSpec.learning_rate)
    clocks = ("wall", "cpu")
    seconds = {(clock, side, shape): [] for clock in clocks for side in packages for shape in SHAPES}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for shape, batch_list in data.items():
            for side in order:
                m, opt = trainers[side, shape]
                start, cpu = time.perf_counter(), time.process_time()
                for step in range(args.steps):
                    m.loss_and_grads(*batch_list[(r * args.steps + step) % len(batch_list)])
                    opt.step()
                seconds["wall", side, shape].append(time.perf_counter() - start)
                seconds["cpu", side, shape].append(time.process_time() - cpu)
        print(json.dumps({"round": r, **{f"{side}_{shape}_{clock}_s": round(seconds[clock, side, shape][-1], 4)
                                         for clock in clocks for side in packages for shape in SHAPES}}), flush=True)

    agreement = "bit-equal" if bit_equal else f"equal within {RTOL:g} relative, not bit-equal"
    print(f"{args.rounds} rounds of {args.steps} steps, {args.batches} batches of {args.batch} pairs per shape, "
          f"vocab {args.vocab}, seed {SEED}: dropout-0 loss and gradients {agreement}")
    print(f"default-dropout ({dropout:g}) loss and gradients {'bit-equal' if dropout_equal else 'not bit-equal'}")
    print(f"verdicts against the bound {bound:g} of {BOUND_METRIC} in {args.parent}/BENCHMARK.json")
    print(f"{'shape':8s} {'clock':5s} {'parent q1 / median / q3 s':>30s} {'change q1 / median / q3 s':>30s} "
          f"{'change/parent':>13s} {'wins':>6s}  verdict")
    for clock in clocks:
        for shape in SHAPES:
            p, c = seconds[clock, "parent", shape], seconds[clock, "change", shape]
            ratio = statistics.median(b / a for a, b in zip(p, c))
            result, wins = verdict(p, c, "lower", bound)
            sides = ["{:9.4g} {:9.4g} {:9.4g}".format(*quartiles(v)) for v in (p, c)]
            print(f"{shape:8s} {clock:5s} {sides[0]:>30s} {sides[1]:>30s} {ratio:13.4f} "
                  f"{wins:>3d}/{args.rounds:<2d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
