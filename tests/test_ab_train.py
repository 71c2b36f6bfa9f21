"""The training rows of tools/ab_model.py at a tiny size: this checkout against
itself gives bit-equal loss and gradients and a wall and a CPU row for each
shape."""


def test_a_checkout_against_itself_reports_bit_equal_gradients_and_both_shapes(ab_model_a_a):
    """With dropout 0 and with the default dropout."""
    lines, rounds = ab_model_a_a
    (line,) = [line for line in lines if line.startswith("training: ")]
    assert line.endswith("dropout-0 loss and gradients bit-equal; default-dropout (0.1) loss and gradients bit-equal")
    assert any("train_pairs_per_s (0.25)" in line for line in lines if line.startswith("verdicts against"))
    for shape in ("NR", "CARI"):
        for clock in ("wall", "cpu"):
            (row,) = [line for line in lines if line.split()[:2] == [shape, clock]]
            assert "/2 " in row and row.endswith(("no gain", "unresolved", "worse than bound"))
            assert all(r[f"{side}_{shape}_{clock}_s"] > 0 for r in rounds for side in ("parent", "change"))
