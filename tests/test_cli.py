"""Repeated in-process `cli.main` calls: one parser per process, and each
call's outputs equal to those of a freshly built parser; `infer` on
features that overflow float32 arithmetic."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempseg import cli
from tempseg.network import ModelConfig, SegmentationModel, save_checkpoint
from tempseg.pipeline import infer, load_features, save_features, save_labels

# a threshold far below the sigmoid's resting value, so refinement keeps
# boundaries and `infer` with and without `--no-refine` print different counts
CFG = ModelConfig(n_classes=3, d_in=4, d_model=8, n_blocks=1, n_decoders=1, heads=2,
                  s_avg=4, w_min=1, w_max=2, boundary_theta=0.05)


def _run(argv):
    """`cli.main(argv)`: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _outputs(argv, files):
    """One call's exit code and stdout, and the bytes of `files` after it
    (None for a file it did not write). The files are removed first."""
    for f in files:
        f.unlink(missing_ok=True)
    code, out, err = _run(argv)
    assert code == 0, err
    return code, out, [f.read_bytes() if f.exists() else None for f in files]


@pytest.fixture
def inputs(tmp_path):
    rng = np.random.default_rng(3)
    ckpt, feat = tmp_path / "m.ckpt", tmp_path / "x.feat"
    save_checkpoint(ckpt, CFG, SegmentationModel(CFG).params)
    save_features(rng.normal(size=(40, CFG.d_in)), feat)
    save_labels(np.repeat([0, 2, 1, 2], 10), tmp_path / "gt.labels")
    save_labels(np.repeat([0, 2, 2, 1], 10), tmp_path / "pred.labels")
    return tmp_path


def _sequences(d):
    """Argument vectors run back to back, each after one that sets the
    option it leaves at its default, with the files each call may write."""
    infer = ["infer", "--ckpt", str(d / "m.ckpt"), "--features", str(d / "x.feat"),
             "--out", str(d / "out")]
    written = [d / "out" / f"x.{kind}.{ext}" for kind in ("raw", "refined")
               for ext in ("labels", "segments")]
    ev = ["eval", "--pred", str(d / "pred.labels"), "--gt", str(d / "gt.labels")]
    report = d / "r.txt"
    return [
        (ev + ["--x100", "--report", str(report)], [report]),
        (ev, [report]),
        (infer + ["--no-refine"], written),
        (infer, written),
        (ev + ["--thresholds", "0.3"], [report]),
        (ev, [report]),
    ]


def test_repeated_main_calls_match_a_freshly_built_parser(inputs, monkeypatch):
    calls = _sequences(inputs)
    reused = [_outputs(argv, files) for argv, files in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_outputs(argv, files) for argv, files in calls]
    assert reused == fresh

    (_, scaled, [report]), (_, plain, [no_report]) = reused[:2]
    assert "accuracy = 50.00" in scaled and report == scaled.encode()
    assert "accuracy = 0.5000" in plain and no_report is None
    (_, unrefined, _), (_, refined, _) = reused[2:4]
    assert unrefined.startswith("0 boundaries detected")
    assert not refined.startswith("0 boundaries detected"), refined
    (_, one, _), (_, default, _) = reused[4:]
    assert [ln for ln in one.splitlines() if ln.startswith("f1@")] == ["f1@30 = 0.5714"]
    assert [ln.split(" = ")[0] for ln in default.splitlines() if ln.startswith("f1@")] == [
        "f1@10", "f1@25", "f1@50"]


def test_main_builds_its_parser_once(inputs, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv, _ in _sequences(inputs):
            assert _run(argv)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_repeated_main_keeps_usage_errors(capsys):
    # a parse error exits 2 through argparse, and leaves the parser usable
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--pred", "p.labels"])
        assert exc.value.code == 2
        assert "the following arguments are required: --gt" in capsys.readouterr().err
    assert cli.main(["flops", "--T", "8"]) == 0
    assert "at T=8" in capsys.readouterr().out


def _infer_at(d, values):
    """`tempseg infer` of d's checkpoint on a features file of `values`,
    with every RuntimeWarning an error (an escaped one exits 1 as an
    internal error): its exit code, stderr, the features path and the label
    files it wrote."""
    feat, out = d / "big.feat", d / "big-out"
    save_features(values, feat)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = _run(["infer", "--ckpt", str(d / "m.ckpt"), "--features", str(feat),
                             "--out", str(out)])
    return code, err, feat, sorted(p.name for p in out.glob("*")) if out.exists() else []


def test_infer_on_features_that_overflow_names_the_file_and_the_stage(inputs):
    # the input projection overflows to inf and the first layer norm makes
    # NaN of it: every stage is NaN, which once wrote all-zero labels
    code, err, feat, written = _infer_at(inputs, np.full((40, CFG.d_in), 3e38))
    assert code == 2, err
    assert err.startswith(f"error: {feat}: stage 0 (encoder): action_logits not finite"), err
    assert "RuntimeWarning" not in err and written == []


def test_infer_on_huge_finite_features_writes_labels_without_warning(inputs):
    # a layer norm's square overflows, but its output, and every stage's,
    # stays finite
    values = np.random.default_rng(4).normal(size=(40, CFG.d_in)) * 1e30
    code, err, feat, written = _infer_at(inputs, values)
    assert code == 0 and err == "", err
    assert written == ["big.raw.labels", "big.raw.segments", "big.refined.labels",
                       "big.refined.segments"]
    model = SegmentationModel(CFG, SegmentationModel(CFG).params)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stages = infer(model, load_features(feat)).output.stages
    assert all(np.isfinite(x.data).all() for s in stages for x in (s.action_logits,
                                                                    s.boundary_scores))


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(0.0, 38.6), seed=st.integers(0, 2**16))
def test_infer_over_feature_magnitudes_labels_or_names_the_file(exponent, seed):
    # infer either writes labels from finite outputs (exit 0) or names the
    # file and the stage (exit 2); it never exits 1 and never warns
    magnitude = min(10.0**exponent, float(np.finfo(np.float32).max))
    values = np.random.default_rng(seed).choice([-1.0, 1.0], size=(24, CFG.d_in)) * magnitude
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        save_checkpoint(d / "m.ckpt", CFG, SegmentationModel(CFG).params)
        code, err, feat, written = _infer_at(d, values)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(f"error: {feat}: stage ") and "not finite" in err, err
        assert written == []
    else:
        assert err == "" and len(written) == 4
