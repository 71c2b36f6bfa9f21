"""tools/ab_model.py at a tiny size, in this process, against copies of this
checkout whose gradients, scoring loss, beam decode or greedy decode differ.
Its A/A run is in test_ab_decode.py and test_ab_train.py."""

import os
import shutil

import pytest

REPO = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize(
    "module, old, new, error",
    [
        ("layers", "        dx *= inv_std\n", "        dx *= inv_std * 1.001\n",
         "loss or gradients differ with dropout 0 on NR batch 0: gradient of "),
        ("seq2seq", "        return total / max(n_tok, 1), n_tok\n",
         "        return total / max(n_tok, 1) * 1.001, n_tok\n", "loss differs on NR batch 0: "),
        ("decoding", "    tokens = min(finished)[2]\n", "    tokens = min(finished)[2][::-1]\n",
         "beam ids differ in round 0"),
        ("decoding", "fanout=1, max_len=max_len)\n", "fanout=1, max_len=max_len)[::-1]\n",
         "greedy ids differ in round 0"),
    ],
    ids=["gradient", "loss", "beam", "greedy"],
)
def test_a_copy_that_differs_fails_naming_the_row(ab_model, capsys, tmp_path, module, old, new, error):
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "rulefst" / "model" / f"{module}.py"
    code = path.read_text()
    assert code.count(old) == 1
    path.write_text(code.replace(old, new))
    assert ab_model.main([REPO, str(tmp_path), "--rounds", "2"]) == 1
    assert f"ab_model: {error}" in capsys.readouterr().err
