"""Paired decode timing of two checkouts in one process: a parent and a change.

    python3 tools/ab_decode.py PARENT_DIR CHANGE_DIR [--rounds N] [--sources N]
        [--src-len L] [--max-len M] [--vocab V]

Each checkout's `rulefst` is imported from its `src/` into this one process
under module objects of its own: the `rulefst` entries of sys.modules are
swapped out around each import and restored after it. Both sides then run on
the same interpreter, the same BLAS (on one thread) and the same inputs.

One model of the default ModelConfig shapes, with the given vocabulary, is
built by the parent's code. Its parameters are moved by seeded N(0, NOISE)
noise, so that its scores are not the near-uniform ones of initialisation,
and loaded into a model built by the change's code. The sources are random
ids above the reserved ones. Model, noise and sources come from the fixed
SEED, so every run decodes the same inputs.

Each round decodes every source with beam 4 / fanout 6 on both sides, then
every source greedily on both sides; which side runs first alternates from
round to round. Both sides must give equal ids on every source: if not, the
run stops with exit status 1, naming the kind, the round and the source.
Each side's decodes are timed in wall seconds (`time.perf_counter`) and in
CPU seconds of this process (`time.process_time`), which a loaded host
disturbs less. For each kind and clock the report gives each side's quartiles
of its seconds per round, the median over rounds of change / parent, the
change's wins (ties count for neither) and `ab_bench.verdict` on those
seconds against the bound that PARENT_DIR's BENCHMARK.json gives
decode_sent_ms_p50, the benchmark's lower-is-better decode time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from ab_bench import quartiles, verdict  # noqa: E402

NOISE = 0.15  # the spread that the default-shape decode oracle in tests/test_decoding.py gives its model
BEAM, FANOUT = 4, 6  # the benchmark's beam decodes
SEED = 0
BOUND_METRIC = "decode_sent_ms_p50"


def load(checkout: str):
    """The `rulefst` package of `checkout`/src, imported under its own module
    objects; whatever `rulefst` modules were loaded before stay loaded."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "rulefst", "__init__.py")):
        raise SystemExit(f"ab_decode: {checkout} has no src/rulefst package")

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


def decoders(package, params, args):
    """(beam, greedy): functions of a source that decode it with the model
    of `package`'s code holding `params`."""
    model_mod = package.model
    model = model_mod.Seq2SeqTransformer(model_mod.ModelConfig(vocab_size=args.vocab, dropout=0.0), seed=SEED)
    model.store.load(params)

    def beam(src):
        return model_mod.beam_decode(model, src, beam_size=BEAM, fanout=FANOUT, max_len=args.max_len)

    def greedy(src):
        return model_mod.greedy_decode(model, src, max_len=args.max_len)

    return beam, greedy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--sources", type=int, default=3)
    parser.add_argument("--src-len", type=int, default=127)
    parser.add_argument("--max-len", type=int, default=127)
    parser.add_argument("--vocab", type=int, default=300)
    args = parser.parse_args(argv)
    if min(args.rounds, args.sources, args.src_len, args.max_len) < 1:
        parser.error("--rounds, --sources, --src-len and --max-len must be at least 1")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        (bound,) = [m["bound"] for m in json.load(f)["end_to_end"] if m["name"] == BOUND_METRIC]

    packages = {"parent": load(args.parent), "change": load(args.change)}
    model_mod = packages["parent"].model
    model = model_mod.Seq2SeqTransformer(model_mod.ModelConfig(vocab_size=args.vocab, dropout=0.0), seed=SEED)
    rng = np.random.default_rng(SEED)
    for value in model.store.values.values():
        value += rng.normal(0.0, NOISE, size=value.shape).astype(value.dtype)
    first_id = len(packages["parent"].text.SPECIAL_TOKENS)
    sources = rng.integers(first_id, args.vocab, size=(args.sources, args.src_len)).tolist()
    kinds, clocks = ("beam", "greedy"), ("wall", "cpu")
    decode = {side: dict(zip(kinds, decoders(p, model.store.values, args))) for side, p in packages.items()}

    seconds = {(clock, side, kind): [] for clock in clocks for side in packages for kind in kinds}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for kind in kinds:
            outputs = {}
            for side in order:
                start, cpu = time.perf_counter(), time.process_time()
                outputs[side] = [decode[side][kind](src) for src in sources]
                seconds["wall", side, kind].append(time.perf_counter() - start)
                seconds["cpu", side, kind].append(time.process_time() - cpu)
            for i, (p, c) in enumerate(zip(outputs["parent"], outputs["change"])):
                if p != c:
                    print(f"ab_decode: {kind} ids differ in round {r} on source {i}:\n  parent {p}\n  change {c}",
                          file=sys.stderr)
                    return 1
        print(json.dumps({"round": r, **{f"{side}_{kind}_{clock}_s": round(seconds[clock, side, kind][-1], 4)
                                         for clock in clocks for side in packages for kind in kinds}}), flush=True)

    print(f"{args.rounds} rounds, {args.sources} sources of {args.src_len} ids, max_len {args.max_len}, "
          f"vocab {args.vocab}, seed {SEED}: equal ids on every source, beam and greedy")
    print(f"verdicts against the bound {bound:g} of {BOUND_METRIC} in {args.parent}/BENCHMARK.json")
    print(f"{'kind':8s} {'clock':5s} {'parent q1 / median / q3 s':>30s} {'change q1 / median / q3 s':>30s} "
          f"{'change/parent':>13s} {'wins':>6s}  verdict")
    for clock in clocks:
        for kind in kinds:
            p, c = seconds[clock, "parent", kind], seconds[clock, "change", kind]
            ratio = statistics.median(b / a for a, b in zip(p, c))
            result, wins = verdict(p, c, "lower", bound)
            sides = ["{:9.4g} {:9.4g} {:9.4g}".format(*quartiles(v)) for v in (p, c)]
            print(f"{kind:8s} {clock:5s} {sides[0]:>30s} {sides[1]:>30s} {ratio:13.4f} "
                  f"{wins:>3d}/{args.rounds:<2d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
