"""Frame accuracy, segmental edit score and segmental F1@k."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .segments import SegmentList, frames_to_segments

__all__ = [
    "EvalReport",
    "frame_accuracy",
    "edit_score",
    "segmental_f1",
    "evaluate_all",
    "levenshtein",
    "DEFAULT_THRESHOLDS",
]

DEFAULT_THRESHOLDS = (0.10, 0.25, 0.50)


@dataclass
class EvalReport:
    accuracy: float
    edit: float
    f1: dict = field(default_factory=dict)  # threshold -> (precision, recall, f1)

    def lines(self, x100: bool = False) -> list[str]:
        scale = 100.0 if x100 else 1.0
        fmt = "{:.2f}" if x100 else "{:.4f}"
        out = [
            "accuracy = " + fmt.format(self.accuracy * scale),
            "edit = " + fmt.format(self.edit * scale),
        ]
        for th in sorted(self.f1):
            p, r, f = self.f1[th]
            pct = int(round(th * 100))
            out.append(f"f1@{pct} = " + fmt.format(f * scale))
            out.append(f"precision@{pct} = " + fmt.format(p * scale))
            out.append(f"recall@{pct} = " + fmt.format(r * scale))
        return out


def frame_accuracy(pred, gt) -> float:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"length mismatch: pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        raise ValueError("cannot score empty sequences")
    return float(np.mean(pred == gt))


def levenshtein(a, b) -> int:
    """Iterative DP edit distance between two symbol sequences."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def edit_score(pred, gt) -> float:
    """1 - D / max(L_p, L_g) over the segment-class strings; both empty
    scores 1.0."""
    ps = [s.label for s in frames_to_segments(pred)] if len(np.atleast_1d(pred)) else []
    gs = [s.label for s in frames_to_segments(gt)] if len(np.atleast_1d(gt)) else []
    if not ps and not gs:
        return 1.0
    d = levenshtein(ps, gs)
    return 1.0 - d / max(len(ps), len(gs))


def _iou(a, b) -> float:
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start) + 1
    return inter / union


def segmental_f1(
    pred: SegmentList, gt: SegmentList, threshold: float
) -> tuple[float, float, float]:
    """Greedy IoU matching in temporal order of the predicted segments.

    A prediction is a TP when its best unmatched same-class ground-truth
    segment has IoU > threshold, strictly; everything else is FP, and
    unmatched ground-truth segments are FN.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    SegmentList(pred).validate(merged=False)
    SegmentList(gt).validate(merged=False)
    matched = [False] * len(gt)
    tp = fp = 0
    for p in pred:
        best, best_iou = -1, 0.0
        for i, g in enumerate(gt):
            if matched[i] or g.label != p.label:
                continue
            iou = _iou(p, g)
            if iou > best_iou:
                best, best_iou = i, iou
        if best_iou > threshold:
            matched[best] = True
            tp += 1
        else:
            fp += 1
    fn = matched.count(False)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate_all(pred, gt, thresholds=DEFAULT_THRESHOLDS) -> EvalReport:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"length mismatch: pred {pred.shape} vs gt {gt.shape}")
    ps = frames_to_segments(pred)
    gs = frames_to_segments(gt)
    report = EvalReport(frame_accuracy(pred, gt), edit_score(pred, gt))
    for th in thresholds:
        report.f1[th] = segmental_f1(ps, gs, th)
    return report
