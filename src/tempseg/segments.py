"""Segment/frame conversions, boundary targets, peak detection and
center-weighted segment refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binio import replacing

__all__ = [
    "Segment",
    "SegmentList",
    "frames_to_segments",
    "segments_to_frames",
    "make_boundary_target",
    "detect_boundaries",
    "refine_prediction",
    "save_segment_file",
]


@dataclass(frozen=True)
class Segment:
    start: int  # inclusive
    end: int    # inclusive
    label: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"segment start {self.start} exceeds end {self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def center(self) -> float:
        return (self.start + self.end) / 2.0


class SegmentList(list):
    """Ordered segments tiling [0, T-1] with no gaps, overlaps or adjacent
    same-label pairs."""

    @property
    def T(self) -> int:
        return self[-1].end + 1 if self else 0

    def validate(self, T: int | None = None, merged: bool = True):
        """Check the tiling; merged=False tolerates adjacent same-label
        segments (e.g. unmerged detector output fed to scoring)."""
        expected = 0
        prev_label = None
        for seg in self:
            if seg.start != expected:
                if seg.start > expected:
                    raise ValueError(f"gap before frame {expected}: next segment starts at {seg.start}")
                raise ValueError(f"overlap at frame {seg.start}: previous segment ends at {expected - 1}")
            if merged and seg.label == prev_label:
                raise ValueError(f"adjacent segments at frame {seg.start} share label {seg.label}")
            expected = seg.end + 1
            prev_label = seg.label
        if T is not None and expected != T:
            if expected < T:
                raise ValueError(f"gap at frame {expected}: segments cover only [0, {expected - 1}] of T={T}")
            raise ValueError(f"segments extend to frame {expected - 1}, beyond T={T}")
        return self


def frames_to_segments(labels) -> SegmentList:
    """Maximal constant runs of a per-frame label sequence."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("cannot segment an empty label sequence")
    changes = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes - 1, [labels.size - 1]))
    return SegmentList(
        Segment(int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)
    ).validate(labels.size)


def segments_to_frames(segments: SegmentList, T: int) -> np.ndarray:
    """Exact inverse of frames_to_segments; rejects gaps and overlaps."""
    if T == 0 and not segments:
        return np.zeros(0, dtype=np.int64)
    SegmentList(segments).validate(T)
    labels = np.zeros(T, dtype=np.int64)
    for seg in segments:
        labels[seg.start : seg.end + 1] = seg.label
    return labels


def boundary_sigma(left: Segment, right: Segment) -> float:
    return max(1.0, 0.05 * min(left.length, right.length))


def make_boundary_target(segments: SegmentList, T: int) -> np.ndarray:
    """Per-frame boundary target: max over internal boundaries of a Gaussian
    peaking (=1) at the boundary, sigma = max(1, 5% of the shorter adjacent
    segment). Sequence endpoints are not boundaries."""
    SegmentList(segments).validate(T)
    target = np.zeros(T)
    t = np.arange(T)
    for left, right in zip(segments[:-1], segments[1:]):
        sigma = boundary_sigma(left, right)
        g = np.exp(-((t - right.start) ** 2) / (2.0 * sigma ** 2))
        np.maximum(target, g, out=target)
    return target


def detect_boundaries(scores, theta: float = 0.5, min_distance: int = 8) -> list[int]:
    """Strict interior local maxima above theta, greedily kept in descending
    score order subject to a pairwise minimum distance.

    Keeping peak p blocks the frames p - (min_distance - 1) ..
    p + (min_distance - 1), so each candidate costs one lookup and the
    greedy is linear in T."""
    scores = np.asarray(scores, dtype=np.float64)
    if min_distance < 1:
        raise ValueError(f"min_distance must be >= 1, got {min_distance}")
    T = scores.size
    if T < 3:
        return []
    interior = np.arange(1, T - 1)
    peaks = interior[
        (scores[1:-1] > scores[:-2])
        & (scores[1:-1] > scores[2:])
        & (scores[1:-1] > theta)
    ]
    order = peaks[np.argsort(-scores[peaks], kind="stable")].tolist()
    # blocked[t]: a kept peak lies fewer than min_distance frames from t
    blocked = np.zeros(T, dtype=bool)
    kept: list[int] = []
    for p in order:
        if not blocked[p]:
            kept.append(p)
            blocked[max(p - min_distance + 1, 0) : p + min_distance] = True
    return sorted(kept)


def refine_prediction(action_probs: np.ndarray, boundaries: list[int]) -> np.ndarray:
    """Relabel the candidate segments delimited by `boundaries` via a
    Gaussian center-weighted vote over the per-frame class probabilities.

    Each candidate [s, e] gets argmax_c sum_t G(t) * p_t(c) with G peaking
    at the candidate center (sigma = len/6); ties go to the lower class id
    and adjacent same-label candidates merge in the output.
    """
    probs = np.asarray(action_probs, dtype=np.float64)
    T = probs.shape[0]
    if sorted(boundaries) != list(boundaries):
        raise ValueError("boundaries must be sorted ascending")
    if any(b <= 0 or b >= T for b in boundaries):
        raise ValueError(f"boundaries must lie strictly inside (0, {T})")
    cuts = [0] + list(boundaries) + [T]
    labels = np.zeros(T, dtype=np.int64)
    for s, e in zip(cuts[:-1], cuts[1:]):
        length = e - s
        center = (s + e - 1) / 2.0
        sigma = max(length / 6.0, 1e-9)
        g = np.exp(-((np.arange(s, e) - center) ** 2) / (2.0 * sigma ** 2))
        votes = g @ probs[s:e]
        labels[s:e] = int(np.argmax(votes))
    return labels


# -- segment file format: `start,end,class` lines, '#' comments -----------


def save_segment_file(path, segments: SegmentList):
    """A header line, then start,end,label per segment, written beside
    `path` and renamed onto it."""
    text = "".join(["# start,end,class_id (frames, inclusive)\n"]
                   + [f"{seg.start},{seg.end},{seg.label}\n" for seg in segments])
    with replacing(path, "w") as f:
        f.write(text)
