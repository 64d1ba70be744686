"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line
(visible in the pytest output even when capture is on).
"""

import time

import numpy as np
import pytest

from tempseg.attention import (
    ScaleSet,
    attended_pairs_count,
    build_sparse_mask,
    build_window_schedule,
    dswa_forward,
    hta_forward,
)
from tempseg.losses import (
    dice_loss,
    focal_loss,
    gaussian_cosine_similarity_loss,
    gaussian_truncated_boundary_loss,
)
from tempseg.metrics import edit_score, evaluate_all, segmental_f1
from tempseg.network import ModelConfig, SegmentationModel, count_params_flops
from tempseg.pipeline import RunConfig, SynthSpec, synth_dataset, train, _sequence_loss
from tempseg.segments import (
    Segment,
    SegmentList,
    detect_boundaries,
    frames_to_segments,
    make_boundary_target,
    refine_prediction,
    segments_to_frames,
)
from tempseg.seqcore import Tensor, conv1d_dilated, layer_norm, linear, softmax

from oracles import (
    dswa_oracle,
    edit_score_oracle,
    f1_oracle,
    fd_check_tensor,
    hta_oracle,
    init_attention_params,
    project,
)


@pytest.fixture
def announce(capfd):
    def _go(line):
        with capfd.disabled():
            print(line)

    return _go


def _report(announce, n, desc, ok, detail):
    announce(f"criterion {n} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -- 1: sparse attention equals the dense oracle --------------------------


def test_criterion_1_sparse_dense_equivalence(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    sched = build_window_schedule(5)
    for _ in range(50):
        T = int(rng.integers(8, 65))
        d_model = 12
        heads = int(rng.choice([2, 4]))
        params = init_attention_params(d_model, 8, heads, rng)
        x = rng.normal(size=(T, d_model))

        e, s = sched[int(rng.integers(0, len(sched)))]
        em, sm = build_sparse_mask(T, e), build_sparse_mask(T, s)
        got = dswa_forward(Tensor(x), em, sm, params).data
        worst = max(worst, float(np.max(np.abs(got - dswa_oracle(x, em, sm, params)))))

        scales = ScaleSet.build(T, s_avg=int(rng.choice([8, 16])),
                                window=int(rng.choice([2, 3])))
        got = hta_forward(Tensor(x), scales, params).data
        worst = max(worst, float(np.max(np.abs(got - hta_oracle(x, scales, params)))))
    wall = time.perf_counter() - t0
    ok = worst < 1e-9 and wall < 10.0
    _report(announce, 1, "sparse attention matches dense oracle",
            ok, f"max abs diff {worst:.3e} over 50 cases in {wall:.1f}s")


# -- 2: gradients match finite differences --------------------------------


def test_criterion_2_finite_difference_gradients(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)

    def t(a):
        return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)

    worst_prim = 0.0
    x = t(np.ascontiguousarray(rng.normal(size=(3, 7)).T))  # time-major [T, C]
    w = t(rng.normal(size=(2, 3, 3)))
    b = t(rng.normal(size=(2,)))
    worst_prim = max(worst_prim, fd_check_tensor(
        lambda: project(conv1d_dilated(x, w, b, dilation=2, mode="causal").sigmoid()),
        [x, w, b]))
    s = t(rng.normal(size=(4, 5)))
    wgt = rng.normal(size=(4, 5))
    worst_prim = max(worst_prim, fd_check_tensor(
        lambda: project(softmax(s), wgt), [s]))
    y = t(rng.normal(size=(9, 4)))
    g = t(rng.uniform(0.5, 1.5, size=4))
    bb = t(rng.normal(size=4))
    wl, bl = t(rng.normal(size=(4, 2))), t(rng.normal(size=2))
    worst_prim = max(worst_prim, fd_check_tensor(
        lambda: project(linear(layer_norm(y, g, bb), wl, bl).gelu()), [y, g, bb, wl, bl]))

    worst_loss = 0.0
    logits = t(rng.normal(size=(12, 3)))
    labels = rng.integers(0, 3, size=12)
    worst_loss = max(worst_loss, fd_check_tensor(lambda: focal_loss(logits, labels), [logits]))
    worst_loss = max(worst_loss, fd_check_tensor(
        lambda: dice_loss(softmax(logits), labels), [logits]))
    segs = SegmentList([Segment(0, 5, 0), Segment(6, 11, 1)])
    feats = t(rng.normal(size=(12, 4)))
    worst_loss = max(worst_loss, fd_check_tensor(
        lambda: gaussian_cosine_similarity_loss(feats, segs), [feats]))
    bt = make_boundary_target(segs, 12)
    scores = t(rng.uniform(0, 1, size=12))
    worst_loss = max(worst_loss, fd_check_tensor(
        lambda: gaussian_truncated_boundary_loss(scores, bt), [scores]))

    # full tiny model end to end
    cfg = ModelConfig(n_classes=3, d_in=6, d_model=8, n_blocks=2, n_decoders=1,
                      heads=2, s_avg=8, w_min=2, w_max=4, temporal_dropout=0.0)
    model = SegmentationModel(cfg)
    spec = SynthSpec(n_classes=3, durations=((10.0, 2.0),) * 3, d_features=6, seed=4)
    f_in, lab, _ = synth_dataset(spec, 1, 32)[0]

    def full_loss():
        _, loss, _ = _sequence_loss(model, f_in, lab, training=False)
        return loss

    check = sorted(model.params)[:: max(1, len(model.params) // 12)]
    tensors = [model.params[k] for k in check]
    worst_model = fd_check_tensor(full_loss, tensors, sample=2,
                                  rng=np.random.default_rng(0))
    wall = time.perf_counter() - t0
    ok = worst_prim < 1e-4 and worst_loss < 1e-4 and worst_model < 1e-3 and wall < 60.0
    _report(announce, 2, "gradients match central finite differences", ok,
            f"primitives {worst_prim:.2e}, losses {worst_loss:.2e}, "
            f"full model {worst_model:.2e} in {wall:.1f}s")


# -- 3: metrics equal brute-force oracles ---------------------------------


def test_criterion_3_metric_oracle_equality(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    mismatches = 0
    for _ in range(1000):
        T = int(rng.integers(1, 51))
        C = int(rng.integers(1, 6))
        pred = rng.integers(0, C, size=T)
        gt = rng.integers(0, C, size=T)
        ps, gs = frames_to_segments(pred), frames_to_segments(gt)
        if edit_score(pred, gt) != edit_score_oracle(ps, gs):
            mismatches += 1
        for th in (0.10, 0.25, 0.50):
            p, r, f = segmental_f1(ps, gs, th)
            fo, _, _, po, ro = f1_oracle(ps, gs, th)
            if (p, r, f) != (po, ro, fo):
                mismatches += 1

    # hand-checked cases
    hand_ok = True
    hand_ok &= edit_score([0] * 4 + [1] * 4, [0] * 3 + [2] * 2 + [1] * 3) == 1 - 1 / 3
    hand_ok &= segmental_f1(SegmentList([Segment(0, 49, 0)]),
                            SegmentList([Segment(0, 99, 0)]), 0.25) == (1.0, 1.0, 1.0)
    hand_ok &= segmental_f1(SegmentList([Segment(0, 49, 0)]),
                            SegmentList([Segment(0, 99, 0)]), 0.50)[2] == 0.0
    wall = time.perf_counter() - t0
    ok = mismatches == 0 and hand_ok and wall < 30.0
    _report(announce, 3, "metrics equal brute-force oracles", ok,
            f"{mismatches} mismatches over 1000 random pairs in {wall:.1f}s")


# -- 4 and 8 share one training configuration -----------------------------

OVERFIT_MODEL = ModelConfig(
    n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
    temporal_dropout=0.3, seed=0,
)
OVERFIT_SPEC = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4,
                         d_features=64, seed=11)


def _overfit_run(tmp_path, tag):
    data = synth_dataset(OVERFIT_SPEC, 5, 512)
    run = RunConfig(model=OVERFIT_MODEL, lr=5e-4, max_epochs=120, patience=120,
                    target_accuracy=0.95)
    ckpt = tmp_path / f"overfit_{tag}.ckpt"
    result = train(run, data, ckpt_path=ckpt)
    return result, ckpt.read_bytes()


_overfit_cache = {}


def _cached_overfit(tmp_path, tag):
    if tag not in _overfit_cache:
        _overfit_cache[tag] = _overfit_run(tmp_path, tag)
    return _overfit_cache[tag]


def test_criterion_4_overfit_small_dataset(announce, tmp_path):
    t0 = time.perf_counter()
    result, _ = _cached_overfit(tmp_path, "a")
    wall = time.perf_counter() - t0
    acc = result.final_train_accuracy
    first, last = result.epoch_losses[0], result.epoch_losses[-1]
    ok = (acc >= 0.95 and len(result.epoch_losses) <= 120
          and last <= 0.5 * first and wall < 900.0)
    _report(announce, 4, "model overfits a small synthetic dataset", ok,
            f"accuracy {acc:.4f} after {len(result.epoch_losses)} epochs, "
            f"loss {first:.3f} -> {last:.3f} in {wall:.0f}s")


# -- 5: refinement helps --------------------------------------------------


def _refinement_suite(seed=5005, n_cases=20, T=400, C=4):
    rng = np.random.default_rng(seed)
    spec = SynthSpec(n_classes=C, durations=((45.0, 10.0),) * C, d_features=4,
                     seed=seed)
    cases = []
    for _, labels, segments in synth_dataset(spec, n_cases, T):
        probs = np.full((T, C), 0.2 / (C - 1))
        probs[np.arange(T), labels] = 0.8
        # short wrong-class blips: the classic over-segmentation failure
        for _ in range(12):
            t = int(rng.integers(0, T - 4))
            wrong = (labels[t] + 1 + int(rng.integers(0, C - 1))) % C
            for k in range(int(rng.integers(2, 5))):
                probs[t + k] = 0.1 / (C - 1)
                probs[t + k, wrong] = 0.9
        scores = make_boundary_target(segments, T)
        bounds = detect_boundaries(scores, theta=0.5, min_distance=8)
        raw = probs.argmax(axis=1)
        refined = refine_prediction(probs, bounds)
        cases.append((labels, raw, refined))
    return cases


def test_criterion_5_refinement_improves_edit(announce):
    cases = _refinement_suite()
    gains, f1_drops = [], []
    for gt, raw, refined in cases:
        e_raw = edit_score(raw, gt)
        e_ref = edit_score(refined, gt)
        gains.append(e_ref - e_raw)
        f_raw = evaluate_all(raw, gt).f1[0.50][2]
        f_ref = evaluate_all(refined, gt).f1[0.50][2]
        f1_drops.append(f_raw - f_ref)
    mean_gain = float(np.mean(gains))
    worst_drop = float(np.max(f1_drops))
    ok = mean_gain >= 0.05 and worst_drop <= 0.02
    _report(announce, 5, "boundary refinement improves segmental quality", ok,
            f"mean edit gain {mean_gain:+.3f}, worst F1@50 drop {worst_drop:+.3f} "
            f"over {len(cases)} cases")


# -- 6: attention stays sparse and sub-quadratic --------------------------


def test_criterion_6_sparsity_and_scaling(announce):
    T = 2048
    worst_ratio = 0.0
    for e, s in build_window_schedule(10):
        for spec in (e, s):
            ratio = attended_pairs_count(build_sparse_mask(T, spec)) / (T * T)
            worst_ratio = max(worst_ratio, ratio)

    sizes = [512, 1024, 2048, 4096]
    times = []
    rng = np.random.default_rng(6006)
    d_model = 64
    params = init_attention_params(d_model, 16, 4, rng)
    e, s = build_window_schedule(10)[4]
    for T_i in sizes:
        x = Tensor(rng.normal(size=(T_i, d_model)))
        em, sm = build_sparse_mask(T_i, e), build_sparse_mask(T_i, s)
        scales = ScaleSet.build(T_i)
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            dswa_forward(x, em, sm, params)
            hta_forward(x, scales, params)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok = worst_ratio < 0.3 and slope < 1.3
    _report(announce, 6, "attention is sparse and scales sub-quadratically", ok,
            f"max pair ratio {worst_ratio:.3f} at T=2048, time exponent {slope:.2f}")


# -- 7: parameter budget --------------------------------------------------


def test_criterion_7_parameter_budget(announce):
    n, _ = count_params_flops(ModelConfig(), T=2048)
    ref = 11_945_000
    dev = (n - ref) / ref
    ok = abs(dev) < 0.20
    _report(announce, 7, "default configuration parameter count", ok,
            f"{n:,} parameters ({dev:+.1%} of the {ref:,} reference)")


# -- 8: determinism -------------------------------------------------------


def test_criterion_8_bit_identical_reruns(announce, tmp_path):
    result_a, ckpt_a = _cached_overfit(tmp_path, "a")
    result_b, ckpt_b = _overfit_run(tmp_path, "b")
    same_train = (result_a.log == result_b.log
                  and result_a.epoch_losses == result_b.epoch_losses
                  and ckpt_a == ckpt_b)

    suite_a = _refinement_suite()
    suite_b = _refinement_suite()
    same_refine = all(
        np.array_equal(ra, rb) and np.array_equal(fa, fb)
        for (_, ra, fa), (_, rb, fb) in zip(suite_a, suite_b)
    )
    ok = same_train and same_refine
    _report(announce, 8, "training and refinement runs are bit-identical", ok,
            f"training identical: {same_train}, refinement identical: {same_refine}")
