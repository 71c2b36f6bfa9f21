from .seq2seq import ModelConfig, Seq2SeqTransformer
from .training import Adam, Checkpoint, TrainSpec, evaluate_loss, make_batch, train
from .decoding import beam_decode, beam_search, greedy_decode, model_step_fn

__all__ = [
    "Adam",
    "Checkpoint",
    "ModelConfig",
    "Seq2SeqTransformer",
    "TrainSpec",
    "beam_decode",
    "beam_search",
    "evaluate_loss",
    "greedy_decode",
    "make_batch",
    "model_step_fn",
    "train",
]
