"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 bench/run.py --workload pipeline-cari --seed 1 --seconds 40 --trace 0

Run from the repository root; `rulefst` is imported from ./src, never from an
installed copy, and the run fails without printing a result if ./src is
missing. BLAS and OpenMP are pinned to one thread before numpy loads, so the
load comes from this single process.

A run alternates setting the workload up three times and running one
pipeline pass, closed-loop, until the next pass would end past --seconds (at
least two passes, so every run also checks that a pass repeats exactly).
setup_s is the mean over passes of the median of their set-ups, which thus
sample the whole run as the other timings do rather than its first fraction
of a second. With --trace 1 untraced and traced passes alternate; the
per-layer metrics come from the traced ones and trace.overhead_pct compares
the two kinds.

Every line but the last is a JSON record of the machine, the configuration
and the samples behind each figure; the last line is the result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUPS_PER_PASS = 3
MIN_PASSES = 2


def percentile(values: list[float], q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def highest_reportable_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, min(99, int(100 * (n - 10) / n))) if n > 10 else 0


def timing(seconds: list[float]) -> dict:
    """Sample count, median, p90 and the highest percentile with ten samples
    beyond it, in ms."""
    ms = [s * 1000.0 for s in seconds]
    q = highest_reportable_percentile(len(ms))
    return {
        "n": len(ms), "p50": percentile(ms, 50), "p90": percentile(ms, 90),
        "highest_percentile_with_10_beyond": q,
        "value_at_that_percentile": percentile(ms, q) if q else None,
    }


def machine(seed: int, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "platform": platform.platform(),
        "seed": seed, "seconds": args.seconds, "workload": args.workload, "trace": args.trace,
    }


def end_to_end(setup_s, passes, peak_rss_mb) -> dict:
    """Rates are run totals over run totals, and every other timing is the
    mean over passes of that pass's own figure (its median set-up, its
    pipeline time, its p50 and p90). CPU speed on a shared host flips
    between states up to 1.7x apart, for milliseconds to minutes at a time;
    a median of all a run's samples jumps to whichever state held half of
    them, while a mean over passes follows the mix of states smoothly."""

    def mean_per_pass(samples_of, q=50):
        return statistics.fmean(percentile(samples_of(p), q) for p in passes)

    def total(key):
        return sum(p.stage_s[key] for p in passes)

    n = SETUPS_PER_PASS
    setups = [setup_s[i : i + n] for i in range(0, len(setup_s), n)]
    serialize_rate = sum(len(p.serialize_sent_s) for p in passes) / sum(sum(p.serialize_sent_s) for p in passes)
    return {
        "setup_s": (statistics.fmean(statistics.median(s) for s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pipeline_s": (statistics.fmean(p.pipeline_s for p in passes), "s"),
        "train_pairs_per_s": (sum(p.train_pairs for p in passes) / total("train"), "1/s"),
        "val_loss": (statistics.median(p.val_loss for p in passes), "nats"),
        "decode_tok_per_s": (sum(p.decode_steps for p in passes) / total("decode"), "1/s"),
        "decode_sent_ms_p50": (mean_per_pass(lambda p: p.beam_call_s) * 1000.0, "ms"),
        "decode_sent_ms_p90": (mean_per_pass(lambda p: p.beam_call_s, 90) * 1000.0, "ms"),
        "serialize_sent_per_s": (serialize_rate, "1/s"),
        "serialize_sent_ms_p50": (mean_per_pass(lambda p: p.serialize_sent_s) * 1000.0, "ms"),
        "serialize_sent_ms_p90": (mean_per_pass(lambda p: p.serialize_sent_s, 90) * 1000.0, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rulefst", "__init__.py")):
        print(f"bench: no rulefst package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.PROFILES:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.PROFILES)}")

    work_dir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    # Exit through the finally below on SIGTERM too, so work_dir is removed.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run(args, workloads, work_dir)
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def run(args, workloads, work_dir) -> int:
    from spans import Tracer
    import instrument

    name, seed = args.workload, args.seed
    problems: list[str] = []

    setup_s: list[float] = []
    corpora: list = []  # the first set-up's corpus; every pass uses it

    def set_up() -> None:
        for _ in range(SETUPS_PER_PASS):
            t0 = time.perf_counter()
            corpus = workloads.setup(name, seed)
            setup_s.append(time.perf_counter() - t0)
            if not corpora:
                corpora.append(corpus)
            elif corpus != corpora[0]:
                problems.append("setup is not deterministic for a fixed seed")

    tracer = Tracer()
    if args.trace:
        instrument.instrument(tracer)

    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    try:
        while True:
            t0 = time.perf_counter()
            set_up()
            is_traced = bool(args.trace) and i % 2 == 1
            tracer.enabled = is_traced
            res = workloads.run_pass(name, seed, corpora[0], work_dir, i, tracer.paused)
            wall = time.perf_counter() - t0
            tracer.enabled = False
            (traced if is_traced else untraced).append(res)
            i += 1
            elapsed = time.perf_counter() - start
            if i >= MIN_PASSES and elapsed + wall > args.seconds:
                break
    finally:
        tracer.restore()
    passes = untraced + traced

    for p in passes:
        problems += p.problems
    first = passes[0].fingerprint()
    if any(p.fingerprint() != first for p in passes[1:]):
        problems.append("a pass did not repeat the first pass's outputs exactly")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    profile = workloads.PROFILES[name]
    n_sent = sum(len(p.serialize_sent_s) for p in passes)
    record = {
        "machine": machine(seed, args),
        "config": {
            "profile": {**profile.__dict__, "n_pairs": profile.n_pairs},
            "model": workloads.ModelConfig(vocab_size=passes[0].vocab_size).to_dict(),
            "train": workloads.train_spec(profile, seed).to_dict(),
            "beam": {"beam_size": workloads.BEAM, "fanout": workloads.FANOUT},
            "rules": len(corpora[0].rules),
            "mean_cari_input_len": sum(p.cari_len for p in passes) / n_sent,
            "mean_target_len": sum(p.target_len for p in passes) / n_sent,
        },
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "bleu": passes[0].bleu,
        "serialize_sent_ms": timing([s for p in untraced for s in p.serialize_sent_s]),
        "decode_sent_ms": timing([s for p in untraced for s in p.beam_call_s]),
        "pipeline_s": [p.pipeline_s for p in untraced],
        # The decoders do not mask special ids; a model at its initialisation
        # sometimes ranks [PAD] or [BOS] first. Counted, not refused.
        "decoded_special_ids": passes[0].special_ids,
        "problems": problems[:20],
    }
    if args.trace:
        record["layer_map"] = instrument.LAYER_MAP
    print(json.dumps(record, sort_keys=True))

    if args.trace:
        base = statistics.median(p.pipeline_s for p in untraced)
        overhead = 100.0 * (statistics.median(p.pipeline_s for p in traced) - base) / base
        values = instrument.layer_metrics(tracer, traced, overhead)
        metrics = {n: {"value": values[n], "unit": u} for n, u in instrument.per_layer_names()}
    else:
        metrics = {n: {"value": v, "unit": u}
                   for n, (v, u) in end_to_end(setup_s, untraced, peak_rss_mb).items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
