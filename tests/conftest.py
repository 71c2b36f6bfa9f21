import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

REPO = os.path.join(os.path.dirname(__file__), "..")

# The motivating sentence exercised throughout the docs and tests: an
# ambiguous informal input where first-come-first-served rule application
# picks the wrong expansions.
AMBIG_SENTENCE = "always, always they think I an extro, but Im a big intro actually"

DEMO_RULES = (
    "r_extro\textro\textra|extrovert\n"
    "r_intro\tintro\tintroduction|introvert\n"
)


@pytest.fixture
def demo_rules_path(tmp_path):
    p = tmp_path / "rules.tsv"
    p.write_text(DEMO_RULES, encoding="utf-8")
    return p


# tools/ab_model.py at a tiny size, run in this process by its tests.
AB_MODEL_TINY = {"VOCAB": 40, "BATCHES": 1, "BATCH": 4, "STEPS": 1, "SOURCES": 2, "SRC_LEN": 12, "MAX_LEN": 8}


def _tiny_ab_model(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "tools"))
    import ab_model

    for name, value in AB_MODEL_TINY.items():
        monkeypatch.setattr(ab_model, name, value)
    return ab_model


@pytest.fixture
def ab_model(monkeypatch):
    return _tiny_ab_model(monkeypatch)


@pytest.fixture(scope="session")
def ab_model_a_a():
    """This checkout against itself over two rounds, run once per session for
    the decode and the training tests: the stdout lines and the per-round
    seconds."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, contextlib.redirect_stdout(out):
        assert _tiny_ab_model(monkeypatch).main([REPO, REPO, "--rounds", "2"]) == 0
    lines = out.getvalue().splitlines()
    rounds = [json.loads(line) for line in lines if line.startswith('{"round": ')]
    assert len(rounds) == 2
    return lines, rounds
