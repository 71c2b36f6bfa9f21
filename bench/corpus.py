"""Seeded synthetic ambiguity corpus and rule generator.

Modelled on the motivating sentence "they think I an extro, but Im a big
intro actually": an informal token has several expansions and a cue word
within the context window decides which one the formal target uses
(extro + party -> extrovert, extro + drama -> extra). Rule files list the
expansions in a fixed order, so first-come-first-served rewriting is right
only when the first expansion happens to be the intended one.

Raw sources are decorated like tweets (mentions, URLs, emoji from
EMOJI_NAMES, capitals, attached punctuation) so that `normalize_tweet` and
`tokenize` do real work. The large-dictionary mode adds thousands of
synthetic single- and multi-token slang rules, some of which share a first
token with a shorter rule so that matches overlap.

Everything is generated from the seed with `random.Random`; nothing is
downloaded and no set iteration order leaks into the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rulefst.rules import Rule, RuleSet
from rulefst.text import EMOJI_NAMES

# Informal token -> ((expansion, cue words), ...). Expansion order is the rule
# file order, so FCFS always picks the first one.
AMBIGUOUS = {
    "extro": (("extra", ("drama", "dramatic", "fries", "loud", "much")),
              ("extrovert", ("party", "people", "outgoing", "social", "crowd"))),
    "intro": (("introduction", ("chapter", "book", "essay", "speech", "paper")),
              ("introvert", ("quiet", "shy", "alone", "reserved", "home"))),
    "doc": (("document", ("file", "print", "signed", "pages", "scan")),
            ("doctor", ("sick", "hospital", "clinic", "fever", "appointment"))),
    "lab": (("laboratory", ("science", "experiment", "chemistry", "research", "samples")),
            ("labrador", ("dog", "puppy", "walk", "bark", "leash"))),
    "temp": (("temporary", ("job", "contract", "worker", "agency", "position")),
             ("temperature", ("hot", "cold", "weather", "degrees", "heat"))),
    "app": (("application", ("phone", "download", "install", "update", "software")),
            ("appetizer", ("dinner", "menu", "restaurant", "order", "plate"))),
    "sub": (("substitute", ("teacher", "class", "school", "player", "bench")),
            ("subscriber", ("channel", "video", "youtube", "stream", "follow"))),
    "vet": (("veteran", ("army", "war", "military", "service", "navy")),
            ("veterinarian", ("cat", "pet", "kitten", "vaccine", "animal"))),
    "rep": (("representative", ("sales", "customer", "company", "call", "office")),
            ("reputation", ("good", "bad", "ruined", "name", "gossip"))),
    "def": (("definition", ("word", "dictionary", "meaning", "term", "glossary")),
            ("definitely", ("yes", "sure", "agree", "totally", "coming"))),
    "prob": (("problem", ("math", "solve", "big", "fix", "issue")),
             ("probably", ("maybe", "guess", "might", "later", "perhaps"))),
    "fam": (("family", ("mom", "dad", "cousins", "holiday", "grandma")),
            ("famous", ("celebrity", "star", "movie", "rich", "actor"))),
}

# Unambiguous slang: pattern -> formal expansion. Multi-token patterns that
# start with a single-token pattern ("ya know" / "ya") overlap on purpose.
SLANG = {
    "u": "you", "ur": "your", "r": "are", "pls": "please", "thx": "thanks",
    "im": "i am", "idk": "i do not know", "gonna": "going to", "wanna": "want to",
    "tbh": "to be honest", "btw": "by the way", "cuz": "because", "b4": "before",
    "gr8": "great", "2day": "today", "ppl": "people", "msg": "message",
    "bday": "birthday", "omg": "oh my god", "ya": "you", "kinda": "kind of",
    "gotta": "have to", "dunno": "do not know", "luv": "love", "nite": "night",
    "tho": "though", "thru": "through", "pic": "picture", "ya know": "you know",
    "i dunno": "i do not know", "no way": "certainly not", "gonna be": "will be",
}

FILLER = (
    "always they think i am a but actually the we were at this that it is so "
    "really very just went to see my our friend last week and then after some "
    "time you know when said for with about again never today tomorrow night "
    "morning new old one two three all of them there here what how why who "
    "could would should can will did does not have has had been being over "
    "under before around into out up down still only also even because while "
    "every other first next little long great best same own few more most"
).split()

PUNCT = (",", ".", "!", "?")
EMOJI = tuple(EMOJI_NAMES)
ALL_LEXICON = set(FILLER) | set(AMBIGUOUS) | {c for senses in AMBIGUOUS.values() for _, cues in senses for c in cues}
ALL_LEXICON |= {t for p in SLANG for t in p.split()} | {t for e in SLANG.values() for t in e.split()}

WINDOW = 3  # cue words are placed within this many tokens of their informal word
# By default every fifth sentence is slang-dense. Their CARI inputs outgrow
# the model's max_len and are truncated, so training batches pad to the same
# length; a fixed share keeps each split's mix the same from seed to seed.
DENSE_EVERY = 5


@dataclass(frozen=True)
class Corpus:
    rules: RuleSet
    pairs: tuple[tuple[str, str], ...]  # (raw informal source, formal target)


def base_rules() -> list[Rule]:
    """The ambiguous and the slang rules, in a fixed file order."""
    rules = [
        Rule(f"amb_{tok}", (tok,), tuple((exp,) for exp, _ in senses))
        for tok, senses in AMBIGUOUS.items()
    ]
    rules += [
        Rule(f"slang_{i:02d}", tuple(p.split()), (tuple(e.split()),))
        for i, (p, e) in enumerate(SLANG.items())
    ]
    return rules


def _word(rng: random.Random, taken: set[str]) -> str:
    consonants, vowels = "bcdfghjklmnprstvwz", "aeiou"
    while True:
        w = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(2, 3)))
        if rng.random() < 0.5:
            w += rng.choice(consonants)
        if w not in taken:
            taken.add(w)
            return w


def big_rules(rng: random.Random, n: int) -> list[Rule]:
    """n synthetic slang rules: 60% one token, 30% two, 10% three; a third of
    the multi-token patterns start with an earlier single-token pattern."""
    taken = set(ALL_LEXICON)
    singles: list[str] = []
    rules: list[Rule] = []
    for i in range(n):
        r = rng.random()
        size = 1 if r < 0.6 else 2 if r < 0.9 else 3
        if size == 1:
            pattern = (_word(rng, taken),)
            singles.append(pattern[0])
        else:
            head = rng.choice(singles) if singles and rng.random() < 1 / 3 else _word(rng, taken)
            pattern = (head,) + tuple(_word(rng, taken) for _ in range(size - 1))
        alternatives: list[tuple[str, ...]] = []
        for _ in range(rng.randint(1, 3)):
            alt = tuple(rng.choice(FILLER) for _ in range(rng.randint(1, 3)))
            if alt not in alternatives:
                alternatives.append(alt)
        rules.append(Rule(f"big_{i:05d}", pattern, tuple(alternatives)))
    return rules


def _decorate(rng: random.Random, words: list[str]) -> str:
    out = [w.capitalize() if rng.random() < 0.15 else w for w in words]
    if rng.random() < 0.4:
        out[-1] += rng.choice(EMOJI)
    if rng.random() < 0.5:
        out.insert(0, "@" + rng.choice(("sam", "jo_k", "alex99", "mia", "the_rock")))
    if rng.random() < 0.3:
        out.append(f"https://t.co/{rng.randrange(16**6):06x}")
    return " ".join(out)


def make_sentence(rng: random.Random, big: list[Rule], n_big: int, dense: bool, i: int = 0) -> tuple[str, str]:
    """One (raw source, formal target) pair, the i-th of its corpus.

    The sentence is a list of units, each an (informal tokens, formal tokens)
    pair that later insertions never split; fillers map to themselves. How
    many fillers, slang patterns and ambiguous words it holds is a fixed
    function of i, so each split has the same length mix whatever the seed;
    which words they are, and where, comes from the seed."""
    units: list[tuple[list[str], list[str]]] = [
        ([w], [w]) for w in (rng.choice(FILLER) for _ in range(6 + i % 7))
    ]

    def insert(informal: list[str], formal: list[str]) -> None:
        units.insert(rng.randint(0, len(units)), (informal, formal))

    for pattern in rng.sample(sorted(SLANG), 6 + i % 4 if dense else 1 + i % 3):
        insert(pattern.split(), SLANG[pattern].split())
    for rule in (rng.choice(big) for _ in range(n_big)):
        insert(list(rule.pattern), list(rule.alternatives[0]))
    for tok in rng.sample(sorted(AMBIGUOUS), 3 if dense else 1 + i % 2):
        expansion, cues = rng.choice(AMBIGUOUS[tok])
        cue = rng.choice(cues)
        # At most one filler between cue and token leaves room for an attached
        # comma while the cue stays inside the context window.
        between = [rng.choice(FILLER) for _ in range(rng.randint(0, WINDOW - 2))]
        if rng.random() < 0.5:
            insert([cue, *between, tok], [cue, *between, expansion])
        else:
            insert([tok, *between, cue], [expansion, *between, cue])

    end = rng.choice(PUNCT[1:])
    informal = [t for src, _ in units for t in src]
    formal = [t for _, tgt in units for t in tgt]
    if rng.random() < 0.3:
        informal[rng.randrange(len(informal))] += ","  # as in "extro, but"
    informal[-1] += end
    return _decorate(rng, informal), " ".join(formal) + " " + end


def make_corpus(
    seed: int, n_pairs: int, n_big_rules: int = 0, big_per_sentence: int = 0, dense_every: int = DENSE_EVERY
) -> Corpus:
    """The rule set (ambiguous + slang [+ n_big_rules dictionary rules]) and
    n_pairs sentence pairs, every dense_every-th of them slang-dense, all
    determined by seed."""
    rng = random.Random(seed)
    big = big_rules(rng, n_big_rules)
    rules = RuleSet(tuple(base_rules() + big))
    pairs = tuple(
        make_sentence(rng, big, big_per_sentence if big else 0, i % dense_every == 0, i) for i in range(n_pairs)
    )
    return Corpus(rules, pairs)
