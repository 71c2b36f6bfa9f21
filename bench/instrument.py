"""Per-layer instrumentation of `rulefst` for the traced run.

`instrument(tracer)` wraps the public functions and methods of each layer
(the package's modules) from outside; `layer_metrics()` turns the spans and
counts of the traced passes into the per-layer metrics. LAYER_MAP names, for
each metric group, the end-to-end metric it should move and on which
workload, so that a change can cite a metric by name.
"""

from __future__ import annotations

from rulefst import metrics as rmetrics
from rulefst import rules, serialize, text
from rulefst.model import decoding, layers, seq2seq, training
from rulefst.text import PAD_ID

from spans import Tracer, aggregate

METHODS = serialize.METHODS
LAYER_CLASSES = ("Dense", "LayerNorm", "MultiHeadAttention", "FeedForward", "Dropout")

# metric group -> (end-to-end metrics it should move, workload)
LAYER_MAP = {
    "text.*": ("serialize_sent_per_s", "serialize-bigrules"),
    "rules.*": ("serialize_sent_per_s, serialize_sent_ms_p90; nothing on pipeline-cari", "serialize-bigrules"),
    "serialize.*": ("serialize_sent_per_s; input_len_ratio.CARI also train_pairs_per_s on pipeline-cari",
                    "serialize-bigrules"),
    "training.*": ("train_pairs_per_s, pipeline_s", "pipeline-cari"),
    "seq2seq.loss_and_grads_*": ("train_pairs_per_s", "pipeline-cari"),
    "seq2seq.encode_ms, seq2seq.next_token_logprobs_ms": ("decode_tok_per_s", "decode-long"),
    "layers.*.backward_*": ("train_pairs_per_s", "pipeline-cari"),
    "layers.*.forward_*, layers.softmax_*, layers.Embedding.project_out_*": (
        "train_pairs_per_s on pipeline-cari; decode_tok_per_s", "decode-long"),
    "decoding.*": ("decode_tok_per_s, decode_sent_ms_p90; barely pipeline_s", "decode-long"),
    "metrics.*": ("pipeline_s", "pipeline-cari"),
    "trace.overhead_pct": ("none: traced minus untraced pass time", "all"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("text.normalize_tweet_ms", "ms"), ("text.tokenize_ms", "ms"), ("text.build_vocab_ms", "ms"),
           ("rules.match_rules_ms", "ms"), ("rules.match_calls_per_sent", "count"),
           ("rules.matches_per_sent", "count")]
    out += [(f"serialize.{m}_self_ms", "ms") for m in METHODS]
    out += [("serialize.cari_segments_per_sent", "count")]
    out += [(f"serialize.truncated_share.{m}", "ratio") for m in METHODS]
    out += [(f"serialize.input_len_ratio.{m}", "ratio") for m in METHODS]
    out += [("serialize.tsv_write_ms", "ms"), ("serialize.tsv_read_ms", "ms"),
            ("training.make_batch_ms", "ms"), ("training.adam_step_ms", "ms"),
            ("training.evaluate_loss_ms", "ms"), ("training.pad_share", "ratio"),
            ("seq2seq.loss_and_grads_ms", "ms"), ("seq2seq.loss_and_grads_self_ms", "ms"),
            ("seq2seq.encode_ms", "ms"), ("seq2seq.next_token_logprobs_ms", "ms")]
    for cls in LAYER_CLASSES:
        for d in ("forward", "backward"):
            out += [(f"layers.{cls}.{d}_ms", "ms"), (f"layers.{cls}.{d}_calls", "count")]
    out += [("layers.Dense.forward_gflop", "Gflop"), ("layers.Dense.backward_gflop", "Gflop"),
            ("layers.Embedding.project_out_ms", "ms"), ("layers.Embedding.project_out_calls", "count"),
            ("layers.Embedding.project_out_backward_ms", "ms"),
            ("layers.Embedding.project_out_backward_calls", "count"),
            ("layers.softmax_ms", "ms"), ("layers.softmax_calls", "count"),
            ("decoding.step_calls", "count"), ("decoding.step_ms", "ms"),
            ("decoding.decoder_positions", "count"), ("decoding.beam_search_self_ms", "ms"),
            ("metrics.corpus_bleu_ms", "ms"), ("trace.overhead_pct", "%")]
    return out


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function and method; undo with tracer.restore()."""
    counts = tracer.counts

    tracer.patch([text], "normalize_tweet", "text.normalize_tweet")
    tracer.patch([text], "tokenize", "text.tokenize")
    tracer.patch([text], "build_vocab", "text.build_vocab")

    def on_match(args, kwargs, result):
        counts["rules.match_calls"] += 1
        counts["rules.matches"] += len(result)

    tracer.patch([rules, serialize], "match_rules", "rules.match_rules", on_match)
    tracer.patch([serialize], "serialize_example", lambda a, k: f"serialize.{a[0]}")
    tracer.patch([serialize], "write_examples_tsv", "serialize.tsv_write")
    tracer.patch([serialize], "read_examples_tsv", "serialize.tsv_read")

    def on_batch(args, kwargs, result):
        src, tgt_in, _ = result
        counts["training.pad_positions"] += int((src == PAD_ID).sum() + (tgt_in == PAD_ID).sum())
        counts["training.positions"] += src.size + tgt_in.size

    tracer.patch([training], "make_batch", "training.make_batch", on_batch)
    tracer.patch([training.Adam], "step", "training.adam_step")
    tracer.patch([training], "evaluate_loss", "training.evaluate_loss")
    tracer.patch([training], "train", "training.train")

    S = seq2seq.Seq2SeqTransformer
    for method in ("loss_and_grads", "encode", "next_token_logprobs", "forward", "loss"):
        tracer.patch([S], method, f"seq2seq.{method}")

    def on_decode(args, kwargs, result):
        if tracer.inside("decoding.step"):
            counts["decoding.decoder_positions"] += args[3].size  # (self, enc_out, src_mask, tgt_in_ids)

    tracer.patch([S], "decode", "seq2seq.decode", on_decode)

    def dense_flops(direction):
        def hook(args, kwargs, result):
            layer, x = args[0], args[1]
            d_in, d_out = layer.store.values[layer.name + ".W"].shape
            rows = x.size // x.shape[-1]
            counts[f"layers.Dense.{direction}_flop"] += (2 if direction == "forward" else 4) * rows * d_in * d_out
        return hook

    for cls in LAYER_CLASSES:
        for d in ("forward", "backward"):
            hook = dense_flops(d) if cls == "Dense" else None
            tracer.patch([getattr(layers, cls)], d, f"layers.{cls}.{d}", hook)
    for method in ("project_out", "project_out_backward"):
        tracer.patch([layers.Embedding], method, f"layers.Embedding.{method}")
    tracer.patch([layers, seq2seq], "softmax", "layers.softmax")

    make_step = decoding.model_step_fn

    def traced_model_step_fn(model, src_ids):
        return tracer.wrap(make_step(model, src_ids), "decoding.step")

    tracer.replace([decoding], "model_step_fn", traced_model_step_fn)
    tracer.patch([decoding], "beam_search", "decoding.beam_search")
    tracer.patch([decoding], "beam_decode", "decoding.beam_decode")
    tracer.patch([decoding], "greedy_decode", "decoding.greedy_decode")
    tracer.patch([rmetrics], "corpus_bleu", "metrics.corpus_bleu")


def layer_metrics(tracer: Tracer, passes: list, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the tracer's spans and counts
    and the passes' serialization statistics."""
    n = len(passes)
    agg = aggregate(tracer.spans)
    c = tracer.counts

    def ms(name, kind="total_s"):
        return agg.get(name, {}).get(kind, 0.0) * 1000.0 / n

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / n

    sentences = sum(len(p.serialize_sent_s) for p in passes)
    out = {
        "text.normalize_tweet_ms": ms("text.normalize_tweet"),
        "text.tokenize_ms": ms("text.tokenize"),
        "text.build_vocab_ms": ms("text.build_vocab"),
        "rules.match_rules_ms": ms("rules.match_rules"),
        "rules.match_calls_per_sent": c["rules.match_calls"] / sentences,
        "rules.matches_per_sent": c["rules.matches"] / max(c["rules.match_calls"], 1),
    }
    for m in METHODS:
        out[f"serialize.{m}_self_ms"] = ms(f"serialize.{m}", "self_s")
    out["serialize.cari_segments_per_sent"] = sum(p.segments for p in passes) / sentences
    for m in METHODS:
        out[f"serialize.truncated_share.{m}"] = sum(p.truncated[m] for p in passes) / sentences
    for m in METHODS:
        out[f"serialize.input_len_ratio.{m}"] = sum(p.len_ratio[m] for p in passes) / sentences
    out.update({
        "serialize.tsv_write_ms": ms("serialize.tsv_write"),
        "serialize.tsv_read_ms": ms("serialize.tsv_read"),
        "training.make_batch_ms": ms("training.make_batch"),
        "training.adam_step_ms": ms("training.adam_step"),
        "training.evaluate_loss_ms": ms("training.evaluate_loss"),
        "training.pad_share": c["training.pad_positions"] / max(c["training.positions"], 1),
        "seq2seq.loss_and_grads_ms": ms("seq2seq.loss_and_grads"),
        "seq2seq.loss_and_grads_self_ms": ms("seq2seq.loss_and_grads", "self_s"),
        "seq2seq.encode_ms": ms("seq2seq.encode"),
        "seq2seq.next_token_logprobs_ms": ms("seq2seq.next_token_logprobs"),
    })
    for cls in LAYER_CLASSES:
        for d in ("forward", "backward"):
            out[f"layers.{cls}.{d}_ms"] = ms(f"layers.{cls}.{d}", "self_s")
            out[f"layers.{cls}.{d}_calls"] = calls(f"layers.{cls}.{d}")
    for d in ("forward", "backward"):
        out[f"layers.Dense.{d}_gflop"] = c[f"layers.Dense.{d}_flop"] / 1e9 / n
    for method in ("project_out", "project_out_backward"):
        out[f"layers.Embedding.{method}_ms"] = ms(f"layers.Embedding.{method}", "self_s")
        out[f"layers.Embedding.{method}_calls"] = calls(f"layers.Embedding.{method}")
    out.update({
        "layers.softmax_ms": ms("layers.softmax"),
        "layers.softmax_calls": calls("layers.softmax"),
        "decoding.step_calls": calls("decoding.step"),
        "decoding.step_ms": ms("decoding.step"),
        "decoding.decoder_positions": c["decoding.decoder_positions"] / n,
        "decoding.beam_search_self_ms": ms("decoding.beam_search", "self_s"),
        "metrics.corpus_bleu_ms": ms("metrics.corpus_bleu"),
        "trace.overhead_pct": overhead_pct,
    })
    return out
