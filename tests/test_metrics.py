import numpy as np
import pytest

from tempseg.metrics import (
    edit_score,
    evaluate_all,
    frame_accuracy,
    levenshtein,
    segmental_f1,
)
from tempseg.segments import Segment, SegmentList, frames_to_segments

from oracles import edit_score_oracle, f1_oracle

rng = np.random.default_rng(2718)


def seg(s, e, c):
    return Segment(s, e, c)


def test_frame_accuracy_basic():
    assert frame_accuracy([0, 1, 1, 2], [0, 1, 2, 2]) == 0.75
    assert frame_accuracy([3], [3]) == 1.0
    with pytest.raises(ValueError):
        frame_accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        frame_accuracy([], [])


def test_levenshtein_hand_cases():
    assert levenshtein([], []) == 0
    assert levenshtein([1, 2, 3], []) == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("kitten", "sitting") == 3


def test_edit_score_insertion():
    # segment strings [A, B] vs [A, C, B]: one insertion over max length 3
    pred = [0] * 4 + [1] * 4
    gt = [0] * 3 + [2] * 2 + [1] * 3
    assert np.isclose(edit_score(pred, gt), 2.0 / 3.0)


def test_edit_score_ignores_durations():
    assert edit_score([0] * 99 + [1], [0] + [1] * 99) == 1.0


def test_f1_threshold_sensitivity():
    gt = SegmentList([seg(0, 99, 0)])
    pred = SegmentList([seg(0, 49, 0)])  # IoU exactly 0.5
    p, r, f = segmental_f1(pred, gt, 0.25)
    assert (p, r, f) == (1.0, 1.0, 1.0)
    p, r, f = segmental_f1(pred, gt, 0.50)  # strict: 0.5 > 0.5 fails
    assert f == 0.0
    # the rule, not the IoU, decides: a non-strict match would count it
    assert f1_oracle(pred, gt, 0.50, strict=False)[0] == 1.0


def test_f1_double_detection_counts_one_fp():
    gt = SegmentList([seg(0, 99, 0)])
    pred = SegmentList([seg(0, 49, 0), seg(50, 99, 0)])
    p, r, f = segmental_f1(pred, gt, 0.25)
    assert (p, r) == (0.5, 1.0)
    assert np.isclose(f, 2.0 / 3.0)


def test_f1_label_mismatch_never_matches():
    gt = SegmentList([seg(0, 9, 0)])
    pred = SegmentList([seg(0, 9, 1)])
    assert segmental_f1(pred, gt, 0.1) == (0.0, 0.0, 0.0)


def test_f1_threshold_validation():
    with pytest.raises(ValueError):
        segmental_f1(SegmentList(), SegmentList([seg(0, 1, 0)]), 0.0)


def _random_pair(r):
    T = int(r.integers(1, 51))
    C = int(r.integers(1, 6))
    return r.integers(0, C, size=T), r.integers(0, C, size=T)


def test_edit_matches_recursive_oracle():
    for _ in range(120):
        pred, gt = _random_pair(rng)
        want = edit_score_oracle(frames_to_segments(pred), frames_to_segments(gt))
        assert edit_score(pred, gt) == want


def test_f1_matches_loop_oracle():
    for _ in range(120):
        pred, gt = _random_pair(rng)
        ps, gs = frames_to_segments(pred), frames_to_segments(gt)
        for th in (0.10, 0.25, 0.50):
            p, r, f = segmental_f1(ps, gs, th)
            fo, _, _, po, ro = f1_oracle(ps, gs, th)
            assert (p, r, f) == (po, ro, fo)


def test_evaluate_all_report_lines():
    gt = [0] * 10 + [1] * 10
    report = evaluate_all(gt, gt)
    assert report.accuracy == 1.0 and report.edit == 1.0
    lines = report.lines()
    assert "accuracy = 1.0000" in lines
    assert any(l.startswith("f1@50") for l in lines)
    pct = report.lines(x100=True)
    assert "accuracy = 100.00" in pct


def test_evaluate_all_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_all([0, 1], [0, 1, 2])
