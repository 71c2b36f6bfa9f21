"""tools/ab_train.py at a tiny size: this checkout against itself, with a wall
and a CPU row for each shape, and against a copy whose gradients differ."""

import json
import os
import shutil
import subprocess
import sys

REPO = os.path.join(os.path.dirname(__file__), "..")
TOOL = os.path.join(REPO, "tools", "ab_train.py")
TINY = ["--rounds", "1", "--steps", "1", "--batches", "1", "--batch", "4", "--vocab", "40"]


def ab_train(parent, change):
    return subprocess.run([sys.executable, TOOL, parent, change, *TINY], capture_output=True, text=True, timeout=120)


def test_a_checkout_against_itself_reports_bit_equal_gradients_and_both_shapes():
    """With dropout 0 and with the default dropout."""
    proc = ab_train(REPO, REPO)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    (line,) = [line for line in lines if line.startswith('{"round": ')]
    assert "dropout-0 loss and gradients bit-equal" in proc.stdout
    assert "default-dropout (0.1) loss and gradients bit-equal" in proc.stdout
    assert "verdicts against the bound 0.25 of train_pairs_per_s" in proc.stdout
    times = json.loads(line)
    for shape in ("NR", "CARI"):
        for clock in ("wall", "cpu"):
            (row,) = [line for line in lines if line.split()[:2] == [shape, clock]]
            assert "/1 " in row and row.endswith(("no gain", "unresolved", "worse than bound"))
            assert all(times[f"{side}_{shape}_{clock}_s"] > 0 for side in ("parent", "change"))


def test_a_copy_whose_gradients_differ_fails_naming_the_shape_and_parameter(tmp_path):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "rulefst" / "model" / "layers.py"
    code = path.read_text()
    old = "        dx *= inv_std\n"
    assert code.count(old) == 1
    path.write_text(code.replace(old, "        dx *= inv_std * 1.001\n"))
    proc = ab_train(REPO, str(tmp_path))
    assert proc.returncode == 1
    assert "ab_train: loss or gradients differ with dropout 0 on NR batch 0: gradient of " in proc.stderr
