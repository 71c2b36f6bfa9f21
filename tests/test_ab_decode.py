"""tools/ab_decode.py at a tiny size: this checkout against itself, with a wall
and a CPU row for each kind, and against copies whose beam or greedy decode
gives other ids."""

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")
TOOL = os.path.join(REPO, "tools", "ab_decode.py")
TINY = ["--rounds", "2", "--sources", "2", "--src-len", "12", "--max-len", "8", "--vocab", "40"]


def ab_decode(parent, change):
    return subprocess.run([sys.executable, TOOL, parent, change, *TINY], capture_output=True, text=True, timeout=120)


def test_a_checkout_against_itself_reports_equal_ids_and_both_kinds():
    proc = ab_decode(REPO, REPO)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert sum(line.startswith('{"round": ') for line in lines) == 2
    assert "equal ids on every source, beam and greedy" in proc.stdout
    assert "verdicts against the bound 0.25 of decode_sent_ms_p50" in proc.stdout
    rounds = [json.loads(line) for line in lines if line.startswith('{"round": ')]
    for kind in ("beam", "greedy"):
        for clock in ("wall", "cpu"):
            (row,) = [line for line in lines if line.split()[:2] == [kind, clock]]
            assert "/2 " in row and row.endswith(("no gain", "unresolved", "worse than bound"))
            assert all(r[f"{side}_{kind}_{clock}_s"] > 0 for r in rounds for side in ("parent", "change"))


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("beam", "    tokens = min(finished)[2]\n", "    tokens = min(finished)[2][::-1]\n"),
        ("greedy", "fanout=1, max_len=max_len)\n", "fanout=1, max_len=max_len)[::-1]\n"),
    ],
)
def test_a_copy_with_a_changed_decode_fails_naming_the_kind(tmp_path, kind, old, new):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "rulefst" / "model" / "decoding.py"
    code = path.read_text()
    assert code.count(old) == 1
    path.write_text(code.replace(old, new))
    proc = ab_decode(REPO, str(tmp_path))
    assert proc.returncode == 1
    assert f"ab_decode: {kind} ids differ in round 0" in proc.stderr
