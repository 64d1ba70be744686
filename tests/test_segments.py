import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempseg.pipeline import load_labels
from tempseg.segments import (
    Segment,
    SegmentList,
    boundary_sigma,
    detect_boundaries,
    frames_to_segments,
    make_boundary_target,
    refine_prediction,
    save_segment_file,
    segments_to_frames,
)

from oracles import detect_boundaries_oracle

rng = np.random.default_rng(4242)


def seg(s, e, c):
    return Segment(s, e, c)


def test_frames_segments_round_trip():
    for _ in range(50):
        T = int(rng.integers(1, 120))
        labels = rng.integers(0, 4, size=T)
        segs = frames_to_segments(labels)
        segs.validate(T)
        assert np.array_equal(segments_to_frames(segs, T), labels)
        # adjacent runs never share a label
        for a, b in zip(segs, segs[1:]):
            assert a.label != b.label and b.start == a.end + 1


def test_empty_round_trip():
    with pytest.raises(ValueError):
        frames_to_segments(np.array([], dtype=int))
    assert segments_to_frames(SegmentList(), 0).size == 0


def test_validate_rejects_gap_overlap_and_merge():
    with pytest.raises(ValueError, match="gap"):
        SegmentList([seg(0, 3, 1), seg(5, 8, 2)]).validate()
    with pytest.raises(ValueError, match="overlap"):
        SegmentList([seg(0, 3, 1), seg(3, 8, 2)]).validate()
    with pytest.raises(ValueError, match="label"):
        SegmentList([seg(0, 3, 1), seg(4, 8, 1)]).validate()


def test_segment_basic_invariants():
    with pytest.raises(ValueError):
        Segment(5, 4, 0)
    assert seg(2, 5, 1).length == 4
    assert seg(0, 3, 0).center == 1.5


def test_boundary_sigma_floor():
    assert boundary_sigma(seg(0, 4, 0), seg(5, 9, 1)) == 1.0  # 0.05*5 floored to 1
    assert boundary_sigma(seg(0, 99, 0), seg(100, 399, 1)) == 5.0


def test_boundary_target_shape_and_peak():
    segs = SegmentList([seg(0, 9, 0), seg(10, 29, 1)])
    b = make_boundary_target(segs, 30)
    assert b.shape == (30,)
    assert b[10] == 1.0 and b.max() == 1.0
    sigma = boundary_sigma(segs[0], segs[1])
    assert math.isclose(b[10 + int(sigma)], math.exp(-0.5), rel_tol=1e-9)
    assert np.all(b >= 0) and np.all(b <= 1)


def test_boundary_target_single_segment_is_zero():
    assert np.array_equal(make_boundary_target(SegmentList([seg(0, 19, 3)]), 20), np.zeros(20))


def test_detect_boundaries_strict_maxima_and_threshold():
    s = np.zeros(30)
    s[10] = 0.9
    s[11] = 0.9  # plateau: neither point is a strict local max
    s[20] = 0.6
    s[25] = 0.4  # below theta
    assert detect_boundaries(s, theta=0.5, min_distance=3) == [20]


def test_detect_boundaries_min_distance_keeps_higher():
    s = np.zeros(40)
    s[10] = 0.7
    s[13] = 0.95
    s[30] = 0.8
    assert detect_boundaries(s, theta=0.5, min_distance=8) == [13, 30]


def test_detect_boundaries_edges_excluded():
    s = np.zeros(10)
    s[0] = 1.0
    s[9] = 1.0
    assert detect_boundaries(s, theta=0.5, min_distance=2) == []


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.integers(0, 6), max_size=120),
    theta=st.sampled_from([-1.0, 0.0, 0.3, 0.5]),
    min_distance=st.integers(1, 15),
)
def test_detect_boundaries_matches_the_brute_force_oracle(levels, theta, min_distance):
    # seven score levels make ties between peaks and plateaus common
    scores = np.asarray(levels, dtype=np.float64) / 6.0
    got = detect_boundaries(scores, theta=theta, min_distance=min_distance)
    assert got == detect_boundaries_oracle(scores, theta, min_distance)
    assert all(type(b) is int for b in got)


def test_detect_boundaries_is_linear_on_a_long_random_sequence():
    # uniform scores over-detect: about 89 000 of 10^6 frames are kept, and a
    # check of each candidate against every kept peak takes minutes
    scores = np.random.default_rng(7).uniform(size=10**6)
    start = time.perf_counter()
    kept = detect_boundaries(scores, theta=0.5, min_distance=8)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s for {len(kept)} kept peaks"
    gaps = np.diff(kept)
    assert len(kept) > 80_000 and gaps.min() >= 8


def test_refine_majority_vote_removes_blip():
    T = 20
    probs = np.zeros((T, 3))
    probs[:10, 0] = 0.9
    probs[:10, 1:] = 0.05
    probs[10:, 1] = 0.9
    probs[10:, [0, 2]] = 0.05
    probs[4] = [0.1, 0.1, 0.8]  # transient spike of class 2
    refined = refine_prediction(probs, [10])
    assert np.array_equal(refined, [0] * 10 + [1] * 10)


def test_refine_center_weighting_beats_edge_frames():
    # class 1 dominates near the segment center, class 0 only at the edges;
    # the Gaussian center weight must let class 1 win despite fewer frames
    T = 12
    probs = np.full((T, 2), 0.5)
    probs[[0, 1, 10, 11]] = [0.95, 0.05]
    probs[[5, 6]] = [0.05, 0.95]
    refined = refine_prediction(probs, [])
    assert np.all(refined == 1)


def test_refine_tie_prefers_lower_class():
    probs = np.full((6, 3), 1.0 / 3.0)
    assert np.all(refine_prediction(probs, [3]) == 0)


def test_refine_rejects_bad_boundaries():
    probs = np.full((8, 2), 0.5)
    with pytest.raises(ValueError):
        refine_prediction(probs, [5, 3])
    with pytest.raises(ValueError):
        refine_prediction(probs, [0])


def test_segment_file_round_trip(tmp_path):
    segs = SegmentList([seg(0, 4, 2), seg(5, 9, 0)])
    p = tmp_path / "ref.seg"
    save_segment_file(p, segs)
    assert list(frames_to_segments(load_labels(p))) == list(segs)


def test_segment_file_reports_bad_line(tmp_path):
    p = tmp_path / "bad.seg"
    p.write_text("0,4,2\nnot-a-segment\n")
    with pytest.raises(ValueError, match=":2:"):
        load_labels(p)
