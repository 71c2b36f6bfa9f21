"""rulefst: context-aware rule injection for formality style transfer.

A desk-scale toolkit: declarative rewrite rules with context windows, four
input-serialization methods (NR, RB, RCAT, CARI), a from-scratch numpy
seq2seq transformer with beam decoding, and BLEU / macro-F1 / Pearson
metrics.
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
    serialize_cari,
    serialize_downstream,
    serialize_example,
    serialize_nr,
    serialize_rb,
    serialize_rcat,
)
from .text import (
    SEP,
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocab,
    detokenize,
    normalize_tweet,
    tokenize,
)
from .metrics import (
    EvalReport,
    accuracy,
    corpus_bleu,
    corpus_bleu_report,
    format_report_table,
    macro_f1,
    macro_f1_report,
    pearson_r,
    sentence_bleu,
)

__version__ = "0.1.0"
