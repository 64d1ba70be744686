import subprocess
import sys

import numpy as np
import pytest

from tempseg.network import ModelConfig, SegmentationModel, load_checkpoint
from tempseg.pipeline import (
    RunConfig,
    SynthSpec,
    infer,
    load_features,
    load_labels,
    load_run_config,
    load_synth_spec,
    resume_optimizer,
    save_features,
    save_labels,
    synth_dataset,
    train,
)
from tempseg.segments import frames_to_segments
from tempseg.seqcore import Adam, Tensor, no_grad

rng = np.random.default_rng(55)


def tiny_run(**kw):
    model = ModelConfig(n_classes=3, d_in=6, d_model=8, n_blocks=1, n_decoders=1,
                        heads=2, s_avg=8, w_min=2, w_max=4, temporal_dropout=0.1)
    base = dict(model=model, lr=1e-2, max_epochs=2, patience=10)
    base.update(kw)
    return RunConfig(**base)


def tiny_data(n=2, T=24, seed=3):
    spec = SynthSpec(n_classes=3, durations=((6.0, 1.0),) * 3, d_features=6, seed=seed)
    return synth_dataset(spec, n, T)


# -- feature files --------------------------------------------------------


def test_features_round_trip(tmp_path):
    seq = rng.normal(size=(17, 5)).astype(np.float64)
    p = tmp_path / "x.feat"
    save_features(seq, p)
    back = load_features(p)
    assert back.shape == (17, 5)
    assert np.array_equal(back, seq.astype(np.float32).astype(np.float64))


def test_features_bad_magic(tmp_path):
    p = tmp_path / "x.feat"
    p.write_bytes(b"WHAT" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_features(p)


def test_features_truncated(tmp_path):
    seq = rng.normal(size=(8, 4))
    p = tmp_path / "x.feat"
    save_features(seq, p)
    data = p.read_bytes()
    p.write_bytes(data[:-7])
    with pytest.raises(ValueError, match="truncat"):
        load_features(p)


def test_features_reject_non_finite(tmp_path):
    seq = rng.normal(size=(4, 4))
    seq[2, 1] = np.nan
    with pytest.raises(ValueError):
        save_features(seq, tmp_path / "x.feat")


# -- label files ----------------------------------------------------------


def test_labels_frame_format(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n0\n1\n2\n")
    assert np.array_equal(load_labels(p), [0, 0, 1, 2])


def test_labels_segment_format(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("# comment\n0,2,1\n3,5,0\n")
    assert np.array_equal(load_labels(p), [1, 1, 1, 0, 0, 0])


def test_labels_mixed_format_rejected(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n0,2,1\n")
    with pytest.raises(ValueError):
        load_labels(p)


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 0, 2, 2, 2, 1])
    p = tmp_path / "l.txt"
    save_labels(labels, p)
    assert np.array_equal(load_labels(p), labels)


# -- synthesis ------------------------------------------------------------


def test_synth_shapes_and_validity():
    spec = SynthSpec(n_classes=4, durations=((10.0, 3.0),) * 4, d_features=12, seed=1)
    data = synth_dataset(spec, 3, 100)
    assert len(data) == 3
    for feats, labels, segments in data:
        assert feats.shape == (100, 12)
        assert labels.shape == (100,)
        segments.validate(100)
        assert np.array_equal(
            [s.label for s in frames_to_segments(labels)], [s.label for s in segments]
        )
        assert np.all(np.isfinite(feats))


def test_synth_deterministic_by_seed():
    a = synth_dataset(SynthSpec(n_classes=3, durations=((5, 1),) * 3, seed=7), 2, 60)
    b = synth_dataset(SynthSpec(n_classes=3, durations=((5, 1),) * 3, seed=7), 2, 60)
    for (fa, la, _), (fb, lb, _) in zip(a, b):
        assert np.array_equal(fa, fb) and np.array_equal(la, lb)
    c = synth_dataset(SynthSpec(n_classes=3, durations=((5, 1),) * 3, seed=8), 2, 60)
    assert not all(np.array_equal(la, lc) for (_, la, _), (_, lc, _) in zip(a, c))


def test_synth_features_separate_classes():
    spec = SynthSpec(n_classes=3, durations=((20, 2),) * 3, d_features=16,
                     noise=0.05, seed=2)
    feats, labels, _ = synth_dataset(spec, 1, 120)[0]
    # class-mean features are far apart relative to the noise floor
    means = np.stack([feats[labels == c].mean(axis=0) for c in np.unique(labels)])
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) > 1.0


def test_synth_validates():
    with pytest.raises(ValueError):
        SynthSpec(n_classes=3, durations=((5, 1),))
    with pytest.raises(ValueError):
        SynthSpec(durations=((0.0, 1.0),) * 8)


# -- config files ---------------------------------------------------------


def test_run_config_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[model]\nn_classes = 4\nd_in = 6\nd_model = 8\nn_blocks = 1\n"
        "n_decoders = 0\nheads = 2\n[train]\nlr = 0.001\nmax_epochs = 7\n"
    )
    run = load_run_config(p)
    assert run.model.n_classes == 4 and run.model.d_model == 8
    assert run.lr == 0.001 and run.max_epochs == 7


def test_run_config_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("[train]\nlearning_rate = 0.1\n")
    with pytest.raises(ValueError, match="learning_rate"):
        load_run_config(p)


def test_synth_spec_parsing(tmp_path):
    p = tmp_path / "synth.cfg"
    p.write_text("[synth]\nn_classes = 2\ndurations = 5,1 7,2\nd_features = 4\nseed = 3\n")
    spec = load_synth_spec(p)
    assert spec.n_classes == 2
    assert spec.durations == ((5.0, 1.0), (7.0, 2.0))


# -- training and inference ----------------------------------------------


def test_train_smoke_and_checkpoint(tmp_path):
    data = tiny_data()
    ckpt = tmp_path / "best.ckpt"
    result = train(tiny_run(), data, ckpt_path=ckpt)
    assert len(result.epoch_losses) == 2
    assert all("loss" in line and "train_acc" in line for line in result.log)
    assert ckpt.exists()
    cfg, params, extra = load_checkpoint(ckpt)
    assert "opt.step" in extra
    assert 0.0 <= result.final_train_accuracy <= 1.0


def test_train_reruns_bit_identical():
    data = tiny_data()
    a = train(tiny_run(), data)
    b = train(tiny_run(), data)
    assert a.log == b.log
    assert a.epoch_losses == b.epoch_losses


def test_validation_split_logged():
    data = tiny_data(n=4)
    result = train(tiny_run(val_fraction=0.25), data)
    assert all("val_loss" in line for line in result.log)


def test_resume_reproducible(tmp_path):
    data = tiny_data()
    ckpt = tmp_path / "warm.ckpt"
    train(tiny_run(), data, ckpt_path=ckpt)

    def continue_from(path):
        cfg, params, extra = load_checkpoint(path)
        model = SegmentationModel(cfg, params)
        opt = Adam(model.parameters(), lr=1e-2)
        resume_optimizer(model, opt, extra)
        from tempseg.pipeline import _sequence_loss

        feats, labels, segments = data[0]
        _, loss, _ = _sequence_loss(model, feats, labels, segments, training=False)
        loss.backward()
        opt.step()
        return {k: p.data.copy() for k, p in model.params.items()}, opt.step_count

    pa, sa = continue_from(ckpt)
    pb, sb = continue_from(ckpt)
    assert sa == sb > 1  # moments and step counter came from the checkpoint
    for k in pa:
        assert np.array_equal(pa[k], pb[k])


def test_infer_output_contract():
    data = tiny_data(n=1, T=30)
    model = SegmentationModel(tiny_run().model)
    feats = data[0][0]
    res = infer(model, feats, refine=True)
    assert res.raw_labels.shape == (30,)
    assert res.refined_labels.shape == (30,)
    assert all(0 <= b < 30 for b in res.boundaries)
    res2 = infer(model, feats, refine=False)
    assert np.array_equal(res2.raw_labels, res2.refined_labels)
    with pytest.raises(ValueError):
        infer(model, np.zeros((10, 99)))


def test_no_grad_inference_is_bit_identical_and_tape_free():
    data = tiny_data(n=1, T=30)
    model = SegmentationModel(tiny_run().model)
    feats = data[0][0]
    taped = model.forward(Tensor(feats))
    assert taped.stages[-1].action_logits._prev  # parameters require grad
    with no_grad():
        free = model.forward(Tensor(feats))
    res = infer(model, feats)
    for out in (free, res.output):
        for a, b in zip(taped.stages, out.stages):
            for name in ("action_logits", "boundary_scores", "features"):
                ta, tb = getattr(a, name), getattr(b, name)
                assert np.array_equal(ta.data, tb.data)
                assert tb._prev == () and tb._backward is None


# -- CLI ------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tempseg.cli", *args], capture_output=True, text=True
    )


def test_cli_synth_eval_round_trip(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text("[synth]\nn_classes = 3\ndurations = 8,2 8,2 8,2\nd_features = 5\n")
    out = tmp_path / "data"
    r = _cli("synth", "--spec", str(spec), "--out", str(out), "--n", "2", "--frames", "40")
    assert r.returncode == 0, r.stderr
    feats = load_features(out / "seq_000.feat")
    labels = load_labels(out / "seq_000.labels")
    assert feats.shape == (40, 5) and labels.shape == (40,)

    r = _cli("eval", "--pred", str(out / "seq_000.labels"), "--gt", str(out / "seq_000.labels"))
    assert r.returncode == 0
    assert "accuracy = 1.0000" in r.stdout
    assert "edit = 1.0000" in r.stdout


def test_cli_inspect_mask_and_flops():
    r = _cli("inspect-mask", "--T", "32", "--layer", "0")
    assert r.returncode == 0 and r.stdout.strip()
    r = _cli("flops", "--T", "256")
    assert r.returncode == 0
    assert "param" in r.stdout.lower()


def test_cli_validation_errors_exit_two(tmp_path):
    r = _cli("eval", "--pred", str(tmp_path / "nope.txt"), "--gt", str(tmp_path / "nope.txt"))
    assert r.returncode == 2
    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"JUNKJUNKJUNK")
    r = _cli("infer", "--ckpt", str(tmp_path / "none.ckpt"), "--features", str(bad),
             "--out", str(tmp_path / "o.txt"))
    assert r.returncode == 2
