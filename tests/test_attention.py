import math
import tracemalloc

import numpy as np
import pytest

from tempseg import seqcore
from tempseg.attention import (
    AttentionMask,
    ScaleSet,
    WindowSpec,
    attended_pairs_count,
    build_sparse_mask,
    build_window_schedule,
    dswa_forward,
    hta_forward,
)
from tempseg.seqcore import ShapeError, Tensor, no_grad

from oracles import (
    aggregate_scales,
    band_mask_oracle,
    dense_attention_oracle,
    dense_mask,
    dswa_oracle,
    fd_check_tensor,
    hta_oracle,
    hta_qkv_oracle,
    init_attention_params,
    project,
)

rng = np.random.default_rng(99)


# -- window schedule ------------------------------------------------------


def test_schedule_five_layers():
    sched = build_window_schedule(5, w_min=16, w_max=256)
    assert [p[0].one_sided_width for p in sched] == [16, 32, 64, 128, 256]
    assert [p[1].one_sided_width for p in sched] == [256, 128, 64, 32, 16]
    assert [p[0].dilation_rate for p in sched] == [0, 1, 2, 3, 4]


def test_schedule_clamps_and_rate_cap():
    sched = build_window_schedule(10, w_min=16, w_max=256, rate_max=4)
    assert [p[0].one_sided_width for p in sched] == [16, 32, 64, 128] + [256] * 6
    assert [p[0].dilation_rate for p in sched][4:] == [4] * 6
    # shrinking ladder is the exact reverse of the expanding one
    assert [p[1].one_sided_width for p in sched] == [p[0].one_sided_width for p in sched][::-1]


def test_schedule_single_layer():
    (e, s), = build_window_schedule(1)
    assert (e.one_sided_width, s.one_sided_width) == (16, 256)


def test_window_spec_step_and_span():
    spec = WindowSpec(4, 2)
    assert spec.step == 3  # rate 0 means adjacent taps, rate r skips r frames
    assert spec.offsets[-1] - spec.offsets[0] + 1 == 2 * 4 * 3 + 1


# -- sparse masks ---------------------------------------------------------


def test_mask_acausal_dilated():
    d = dense_mask(build_sparse_mask(5, WindowSpec(1, 1)))
    assert list(np.flatnonzero(d[2])) == [0, 2, 4]
    assert list(np.flatnonzero(d[0])) == [0, 2]  # negative offsets clipped away


def test_mask_dense_matches_allowed():
    # the keys each query may attend, from the mask, against the band oracle
    m = build_sparse_mask(9, WindowSpec(2, 1))
    assert np.array_equal(dense_mask(m), band_mask_oracle(9, 2, 2))


def test_pairs_count():
    m = build_sparse_mask(4, WindowSpec(1, 0))
    keys = [list(np.flatnonzero(row)) for row in dense_mask(m)]
    assert keys == [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
    assert attended_pairs_count(m) == 10


def test_pairs_count_closed_form_matches_band_and_oracle():
    specs = [spec for pair in build_window_schedule(10) for spec in pair]
    specs += [WindowSpec(3, 2), WindowSpec(1, 4), WindowSpec(5, 6)]
    for spec in specs:
        for T in sorted({1, 2, max(1, spec.step - 1), spec.step + 1, 37, 300}):
            m = build_sparse_mask(T, spec)
            got = attended_pairs_count(m)
            oracle = band_mask_oracle(T, spec.one_sided_width, spec.step)
            assert got == int(m.valid.sum()) == int(oracle.sum()), (spec, T)


@pytest.mark.parametrize("T", [10**17, 10**19])
def test_pairs_count_is_exact_beyond_int64(T):
    # sum over offsets j * step, |j| <= w, of T - |j| * step
    for spec in (spec for pair in build_window_schedule(10) for spec in pair):
        w = spec.one_sided_width
        want = (2 * w + 1) * T - spec.step * w * (w + 1)
        assert attended_pairs_count(build_sparse_mask(T, spec)) == want, spec


def test_every_query_attends_itself():
    for spec in (WindowSpec(3, 2), WindowSpec(5, 0)):
        assert dense_mask(build_sparse_mask(23, spec)).diagonal().all()


# -- scale sets -----------------------------------------------------------


def test_scale_count_formula():
    assert ScaleSet.build(512, s_avg=64).scales == [0, 1, 2]
    assert ScaleSet.build(64, s_avg=64).scales == [0]
    assert ScaleSet.build(32, s_avg=64).scales == [0]  # never below one scale


def test_scale_count_cap():
    # without the cap the coarsest span keeps growing with T and the
    # hierarchical pass goes quadratic; the cap pins it
    assert ScaleSet.build(8192, s_avg=64).scales == [0, 1, 2, 3]
    assert ScaleSet.build(8192, s_avg=64, max_scales=0).scales == list(range(7))


def test_scale_weights_default_uniform():
    # each of a built set's 3 scales weighs 1/3: HTA equals the dense oracle
    # given those weights on the projected q, k and v
    T = 64
    x = rng.normal(size=(T, 8))
    params = init_attention_params(8, 4, 2, rng)
    scales = ScaleSet.build(T, s_avg=8, window=2)
    assert scales.scales == [0, 1, 2]
    q, k, v = (x @ w.data + b.data for w, b in
               ((params.wq, params.bq), (params.wk, params.bk), (params.wv, params.bv)))
    want = hta_qkv_oracle(q, k, v, 2, scales.scales, [1 / 3] * 3, 2)
    got = hta_forward(Tensor(x), scales, params).data
    assert np.max(np.abs(got - (want @ params.wo.data + params.bo.data))) < 1e-12


def test_scale_set_is_a_ladder_over_at_least_one_frame():
    # scale s pools by 2**s; a set needs a frame and a scale
    assert ScaleSet(3, 3).scales == [0, 1, 2]
    for T, levels in ((0, 1), (5, 0)):
        with pytest.raises(ShapeError):
            ScaleSet(T, levels)


# -- score aggregation ----------------------------------------------------


def test_aggregate_scales_rows_sum_to_one():
    T = 12
    nbs = [np.eye(T, dtype=bool) | np.eye(T, k=1, dtype=bool), np.ones((T, T), bool)]
    es = [rng.normal(size=(T, T)), rng.normal(size=(T, T))]
    a = aggregate_scales(es, [0.7, 0.3], nbs)
    assert np.allclose(a.sum(axis=1), 1.0)
    assert np.all(a >= 0)


def test_aggregate_scales_missing_pair_contributes_zero():
    T = 4
    e_big = np.full((T, T), 100.0)
    nb_none = np.zeros((T, T), bool)
    nb_all = np.ones((T, T), bool)
    # scale 0 has huge scores but no pairs: result must ignore them entirely
    a = aggregate_scales([e_big, np.zeros((T, T))], [1.0, 1.0], [nb_none, nb_all])
    assert np.allclose(a, 1.0 / T)


def test_aggregate_scales_empty_union_raises():
    T = 3
    nb = np.ones((T, T), bool)
    nb[1] = False
    with pytest.raises(ValueError, match="empty neighborhood"):
        aggregate_scales([np.zeros((T, T))], [1.0], [nb])


# -- sparse == dense ------------------------------------------------------


def test_dswa_matches_dense_oracle_all_layers():
    T, d_model = 48, 16
    x = rng.normal(size=(T, d_model))
    params = init_attention_params(d_model, 8, 4, rng)
    for e, s in build_window_schedule(5):
        em, sm = build_sparse_mask(T, e), build_sparse_mask(T, s)
        got = dswa_forward(Tensor(x), em, sm, params).data
        want = dswa_oracle(x, em, sm, params)
        assert np.max(np.abs(got - want)) < 1e-12


def test_dswa_default_width_peak_memory():
    # default d_model/attn_dim/heads at the widest dilated windows of the
    # default 10-block schedule, at the paper's target length
    T = 2048
    params = init_attention_params(256, 64, 8, rng)
    e, s = build_window_schedule(10)[4]
    em, sm = build_sparse_mask(T, e), build_sparse_mask(T, s)
    x = Tensor(rng.normal(size=(T, 256)))
    tracemalloc.start()
    try:
        dswa_forward(x, em, sm, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6, f"peak {peak / 1e6:.1f} MB"


def test_hta_default_width_memory():
    # one tape-mode HTA call at the default d_model/attn_dim/heads and the
    # paper's target length; the tape keeps the projections, q/k/v and the
    # output, not the per-scale score and weight arrays (272 MB before the
    # fused op, 16 MB with it)
    T = 2048
    params = init_attention_params(256, 64, 8, rng)
    x = Tensor(rng.normal(size=(T, 256)))
    scales = ScaleSet.build(T)
    tracemalloc.start()
    try:
        y = hta_forward(x, scales, params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y._prev
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"
    assert held < 24e6, f"held {held / 1e6:.1f} MB"


def test_masks_store_only_their_window():
    # attention reads the spec; `valid` is computed when read
    T = 2048
    params = init_attention_params(16, 8, 2, rng)
    e, s = build_window_schedule(10)[4]
    em, sm = build_sparse_mask(T, e), build_sparse_mask(T, s)
    with no_grad():
        dswa_forward(Tensor(rng.normal(size=(T, 16))), em, sm, params)
    assert vars(em) == {"T": T, "spec": e} and vars(sm) == {"T": T, "spec": s}
    valid = em.valid
    assert valid.shape == (T, 2 * e.one_sided_width + 1)
    assert vars(em) == {"T": T, "spec": e}
    assert int(valid.sum()) == attended_pairs_count(em)


def test_dswa_odd_heads_rejected():
    params = init_attention_params(8, 6, 3, rng)
    m = build_sparse_mask(8, WindowSpec(2, 0))
    with pytest.raises(ShapeError):
        dswa_forward(Tensor(rng.normal(size=(8, 8))), m, m, params)


def test_hta_matches_dense_oracle():
    T = 37
    x = rng.normal(size=(T, 12))
    params = init_attention_params(12, 8, 2, rng)
    scales = ScaleSet.build(T, s_avg=8, window=2)
    assert scales.scales == [0, 1]
    got = hta_forward(Tensor(x), scales, params).data
    want = hta_oracle(x, scales, params)
    assert np.max(np.abs(got - want)) < 1e-12


def test_hta_chunked_matches_dense_oracle(monkeypatch):
    # a tiny block size runs the window sums over many row blocks
    monkeypatch.setattr(seqcore, "TILE_ROWS", 4)
    T = 45
    x = rng.normal(size=(T, 12))
    params = init_attention_params(12, 8, 2, rng)
    scales = ScaleSet(T, 3, window=2)
    assert scales.scales == [0, 1, 2]
    got = hta_forward(Tensor(x), scales, params).data
    assert np.max(np.abs(got - hta_oracle(x, scales, params))) < 1e-12


def test_grad_hta_chunked(monkeypatch):
    monkeypatch.setattr(seqcore, "TILE_ROWS", 4)
    T = 21
    x = Tensor(rng.normal(size=(T, 6)), requires_grad=True)
    params = init_attention_params(6, 4, 2, rng)
    scales = ScaleSet(T, 3, window=2)
    w = rng.normal(size=(T, 6))
    err = fd_check_tensor(lambda: project(hta_forward(x, scales, params), w),
                          [x, params.wq, params.wk, params.wv])
    assert err < 1e-6


def test_hta_single_scale_equals_plain_windowed():
    T = 20
    x = rng.normal(size=(T, 8))
    params = init_attention_params(8, 4, 2, rng)
    scales = ScaleSet(T, 1, window=3)
    got = hta_forward(Tensor(x), scales, params).data
    mask = np.abs(np.arange(T)[:, None] - np.arange(T)[None, :]) <= 3
    want = dense_attention_oracle(x, params, mask) @ params.wo.data + params.bo.data
    assert np.max(np.abs(got - want)) < 1e-12


def test_attention_rows_are_convex_weights():
    # masked softmax output: values inside the band, exact zeros elsewhere
    m = build_sparse_mask(10, WindowSpec(2, 1))
    d = dense_mask(m)
    assert not d.all()
    assert d.any(axis=1).all()
