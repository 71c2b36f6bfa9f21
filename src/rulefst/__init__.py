"""rulefst: context-aware rule injection for formality style transfer.

A desk-scale toolkit: declarative rewrite rules with context windows, four
input-serialization methods (NR, RB, RCAT, CARI) behind one entry point,
`serialize_example`, a from-scratch numpy seq2seq transformer with beam
decoding (`rulefst.model`), and corpus BLEU.
"""

from .errors import DataError, RuleFstError, TrainingError
from .rules import (
    DEFAULT_WINDOW,
    Rule,
    RuleMatch,
    RuleSet,
    load_rules,
    match_rules,
    save_rules,
)
from .serialize import (
    CARI,
    METHODS,
    NR,
    RB,
    RCAT,
    SerializedExample,
    apply_rules_fcfs,
    serialize_example,
)
from .text import (
    SEP,
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocab,
    normalize_tweet,
    tokenize,
)
from .metrics import EvalReport, corpus_bleu, corpus_bleu_report

__version__ = "0.1.0"
