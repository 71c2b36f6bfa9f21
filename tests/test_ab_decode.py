"""The decode rows of tools/ab_model.py at a tiny size: this checkout against
itself gives equal ids and a wall and a CPU row for beam and greedy."""


def test_a_checkout_against_itself_reports_equal_ids_and_both_kinds(ab_model_a_a):
    lines, rounds = ab_model_a_a
    assert any(line.endswith("and greedy: equal ids on every source") for line in lines)
    assert any("decode_sent_ms_p50 (0.25)" in line for line in lines if line.startswith("verdicts against"))
    for kind in ("beam", "greedy"):
        for clock in ("wall", "cpu"):
            (row,) = [line for line in lines if line.split()[:2] == [kind, clock]]
            assert "/2 " in row and row.endswith(("no gain", "unresolved", "worse than bound"))
            assert all(r[f"{side}_{kind}_{clock}_s"] > 0 for r in rounds for side in ("parent", "change"))
