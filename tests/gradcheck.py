"""Finite-difference validation of the hand-written backprop.

Compares the analytic gradients of `loss_and_grads` against central
differences of `loss` on a random subsample of entries in every parameter
tensor. The model must be float64 and have dropout 0: `loss_and_grads`
always trains, so at a dropout above 0 it would differentiate a dropped-out
loss that `loss`, which never drops, does not compute.
"""

from __future__ import annotations

import numpy as np

from rulefst.model import ModelConfig, Seq2SeqTransformer


def grad_check(
    model: Seq2SeqTransformer,
    src_ids: np.ndarray,
    tgt_in_ids: np.ndarray,
    tgt_out_ids: np.ndarray,
    epsilon: float = 1e-5,
    samples_per_param: int = 6,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Relative error per parameter group, plus an 'overall' entry.

    For each parameter tensor a random subsample of entries is perturbed; the
    group error is ||analytic - numeric|| / max(||analytic||, ||numeric||)
    over that subsample, which keeps round-off noise on near-zero entries
    from swamping the comparison. Groups where both sides are negligibly
    zero score 0.
    """
    if model.store.dtype != np.float64:
        raise ValueError("grad_check requires a float64 model")
    if model.config.dropout > 0:
        raise ValueError(f"grad_check requires dropout 0, not {model.config.dropout}")
    rng = rng or np.random.default_rng(0)

    model.loss_and_grads(src_ids, tgt_in_ids, tgt_out_ids)
    analytic = {k: v.copy() for k, v in model.store.grads.items()}

    def loss_only() -> float:
        loss, _ = model.loss(src_ids, tgt_in_ids, tgt_out_ids)
        return loss

    errors: dict[str, float] = {}
    for name, value in model.store.values.items():
        n = value.size
        picks = rng.choice(n, size=min(samples_per_param, n), replace=False)
        flat = value.reshape(-1)
        numeric = np.empty(len(picks))
        for i, idx in enumerate(picks):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up = loss_only()
            flat[idx] = orig - epsilon
            down = loss_only()
            flat[idx] = orig
            numeric[i] = (up - down) / (2.0 * epsilon)
        a = analytic[name].reshape(-1)[picks]
        na, nn = np.linalg.norm(a), np.linalg.norm(numeric)
        if max(na, nn) < 1e-7:
            errors[name] = 0.0
        else:
            errors[name] = float(np.linalg.norm(a - numeric) / max(na, nn))
    errors["overall"] = max(v for k, v in errors.items() if k != "overall")
    return errors


def tiny_model_for_check(vocab_size: int = 12, seed: int = 0) -> Seq2SeqTransformer:
    """A minimal float64 model, dropout off, for finite-difference checks."""
    cfg = ModelConfig(
        vocab_size=vocab_size,
        d_model=16,
        heads=2,
        enc_layers=1,
        dec_layers=1,
        ffn_dim=32,
        max_len=12,
        dropout=0.0,
        dtype="float64",
    )
    return Seq2SeqTransformer(cfg, seed=seed)
