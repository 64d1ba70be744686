import contextlib
import errno
import functools
import hashlib
import io
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tempseg import binio, cli, pipeline
from tempseg.binio import FormatError
from tempseg.network import (
    RETIRED_KEYS,
    ModelConfig,
    SegmentationModel,
    load_checkpoint,
    save_checkpoint,
)
from tempseg.pipeline import (
    FEATURE_MAGIC,
    RETIRED_TRAIN_KEYS,
    RunConfig,
    SynthSpec,
    TrainingError,
    infer,
    load_features,
    load_labels,
    load_run_config,
    load_synth_spec,
    save_features,
    save_labels,
    synth_dataset,
    synth_sequence,
    train,
    _sequence_loss,
)
from tempseg.segments import frames_to_segments, save_segment_file
from tempseg.seqcore import Adam, Tensor, no_grad

from oracles import checkpoint_v1_bytes, save_labels_per_line, save_segment_file_per_line

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


def tiny_files(tmp_path, run):
    """tiny_data() as .feat/.labels files plus a config file for `run`:
    (config path, data directory)."""
    m = run.model
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[model]\nn_classes = {m.n_classes}\nd_in = {m.d_in}\nd_model = {m.d_model}\n"
        f"n_blocks = {m.n_blocks}\nn_decoders = {m.n_decoders}\nheads = {m.heads}\n"
        f"s_avg = {m.s_avg}\nw_min = {m.w_min}\nw_max = {m.w_max}\n"
        f"temporal_dropout = {m.temporal_dropout}\n"
        f"[train]\nlr = {run.lr}\nmax_epochs = {run.max_epochs}\npatience = {run.patience}\n"
    )
    assert load_run_config(config) == run
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for i, (feats, labels, _) in enumerate(tiny_data()):
        save_features(feats, data_dir / f"seq_{i:03d}.feat")
        save_labels(labels, data_dir / f"seq_{i:03d}.labels")
    return config, data_dir


# -- feature files --------------------------------------------------------


def test_features_round_trip(tmp_path):
    seq = rng.normal(size=(17, 5)).astype(np.float64)
    p = tmp_path / "x.feat"
    save_features(seq, p)
    back = load_features(p)
    assert back.shape == (17, 5)
    assert np.array_equal(back, seq.astype(np.float32).astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float32, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                  elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
def test_features_round_trip_any_finite_matrix(seq):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.feat")
        save_features(seq, path)
        back = load_features(path)
    assert back.dtype == np.float32 and back.shape == seq.shape
    assert back.tobytes() == seq.astype("<f4").tobytes()


def test_save_features_rejects_values_beyond_float32_before_writing(tmp_path):
    # 1e39 is finite in float64 but overflows the float32 payload
    p = tmp_path / "x.feat"
    with pytest.raises(ValueError, match="float32 range"):
        save_features(np.array([[1.0, 1e39]]), p)
    assert not p.exists()


def test_save_features_writes_float32_input_without_a_copy(tmp_path):
    # the values are checked as given, so the peak is the finiteness mask, a
    # quarter of the payload
    seq = rng.normal(size=(2048, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        save_features(seq, tmp_path / "x.feat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < seq.nbytes / 4 + 64 * 1024, peak / seq.nbytes
    assert (tmp_path / "x.feat").read_bytes()[24:] == seq.tobytes()


def test_cli_synth_files_keep_their_bytes(tmp_path):
    # the sha256 of the files `tempseg synth --n 2 --frames 40` writes, in
    # name order: the default spec's features, labels and segments
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path), "--n", "2", "--frames", "40"]) == 0
    h = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        h.update(name.encode())
        h.update((tmp_path / name).read_bytes())
    assert h.hexdigest() == "b4813a9811579b81dd00fbe6ab8a51a290b8076408cf5850a7994a5d4bcc4fd9"


def test_load_features_returns_the_float32_payload(tmp_path):
    seq = rng.normal(size=(9, 4))
    p = tmp_path / "x.feat"
    save_features(seq, p)
    back = load_features(p)
    assert back.dtype == np.float32 and back.flags.writeable
    assert np.array_equal(back, seq.astype(np.float32))


def test_save_features_holds_one_float32_copy(tmp_path):
    # the payload goes to the file through the buffer protocol, not through
    # a second, bytes copy of the float32 matrix
    seq = rng.normal(size=(2048, 512))
    p = tmp_path / "x.feat"
    tracemalloc.start()
    try:
        save_features(seq, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = seq.astype("<f4")
    assert peak < payload.nbytes + 64 * 1024, peak / payload.nbytes
    assert p.read_bytes()[24:] == payload.tobytes()


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


def test_features_declaring_more_than_the_file_holds_allocate_nothing(tmp_path):
    # the payload's length is checked against the file before the array is
    # made: a 2^60-entry header fails as a truncated payload, not in np.empty
    p = tmp_path / "x.feat"
    p.write_bytes(FEATURE_MAGIC + struct.pack("<IQQ", 1, 1 << 40, 1 << 20) + bytes(16))
    with pytest.raises(FormatError, match="truncated feature payload at byte 24: needs "):
        load_features(p)


def test_features_reject_zero_columns(tmp_path, capsys):
    p = tmp_path / "x.feat"
    with pytest.raises(ValueError, match="non-empty"):
        save_features(np.zeros((3, 0)), p)
    assert not p.exists()
    p.write_bytes(FEATURE_MAGIC + struct.pack("<IQQ", 1, 3, 0))
    with pytest.raises(FormatError, match="no feature columns") as err:
        load_features(p)
    assert str(p) in str(err.value)
    bounds = tmp_path / "b.txt"
    bounds.write_text("1\n")
    assert cli.main(["refine", "--probs", str(p), "--boundaries", str(bounds)]) == 2
    assert f"{p}: feature file has no feature columns" in capsys.readouterr().err


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


@pytest.mark.parametrize("text, line", [
    ("0\n1\n-3\n", 3),
    ("# comment\n0,2,1\n3,5,-1\n", 3),
    ("0\n99999999999999999999\n", 2),
    ("0,99999999999,1\n", 1),
])
def test_labels_out_of_range_rejected_with_line(tmp_path, text, line):
    p = tmp_path / "l.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"{p}:{line}: "):
        load_labels(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3) | st.integers(0, 2**63 - 1), min_size=1, max_size=300))
def test_label_and_segment_writers_keep_the_per_line_bytes(labels):
    # one write per file gives the bytes of one write per line
    segments = frames_to_segments(np.asarray(labels))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("a", "b", "c", "d")]
        save_labels(labels, paths[0])
        save_labels_per_line(labels, paths[1])
        save_segment_file(paths[2], segments)
        save_segment_file_per_line(paths[3], segments)
        a, b, c, d = (open(p, "rb").read() for p in paths)
        assert np.array_equal(load_labels(paths[0]), labels)
        assert sorted(os.listdir(tmp)) == ["a", "b", "c", "d"]  # no temporary left
    assert a == b and c == d


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_a_failed_label_or_segment_write_leaves_the_old_file(tmp_path, monkeypatch, fail):
    # each writer writes a file beside its target and renames it onto the
    # target, so a write that raises leaves the previous file whole
    labels, path = [0, 0, 1], tmp_path / "x"
    writers = [lambda: save_labels(labels, path),
               lambda: save_segment_file(path, frames_to_segments(np.array(labels)))]
    for write in writers:
        write()
        before = path.read_bytes()
        with monkeypatch.context() as m:
            if fail == "rename":
                m.setattr(os, "replace", _full_disk)
            else:
                m.setattr(binio, "open", _HalfWritten, raising=False)
            with pytest.raises(OSError, match="no space"):
                write()
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["x"]


@pytest.mark.parametrize("fail", ["write", "rename"])
def test_a_failed_eval_report_write_leaves_the_old_report(tmp_path, monkeypatch, capsys, fail):
    labels, report = tmp_path / "x.labels", tmp_path / "r.txt"
    save_labels([0, 0, 1, 1], labels)
    argv = ["eval", "--pred", str(labels), "--gt", str(labels), "--report", str(report)]
    assert cli.main(argv) == 0
    before = report.read_bytes()
    assert b"accuracy = 1.0000" in before
    with monkeypatch.context() as m:
        if fail == "rename":
            m.setattr(os, "replace", _full_disk)
        else:
            m.setattr(binio, "open", _HalfWritten, raising=False)
        assert cli.main(argv + ["--x100"]) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert report.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["r.txt", "x.labels"]


def _full_disk(*args):
    raise OSError(errno.ENOSPC, "no space left on device")


class _HalfWritten:
    """An open file whose write stores half its data, then fails as on a
    full disk."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        _full_disk()


@pytest.mark.parametrize("labels", [[4], [2, 2, 2]])
def test_one_frame_and_one_segment_files_keep_the_per_line_bytes(tmp_path, labels):
    segments = frames_to_segments(np.array(labels))
    save_segment_file(tmp_path / "s", segments)
    save_segment_file_per_line(tmp_path / "s_ref", segments)
    assert (tmp_path / "s").read_bytes() == (tmp_path / "s_ref").read_bytes() == (
        f"# start,end,class_id (frames, inclusive)\n0,{len(labels) - 1},{labels[0]}\n".encode())
    save_labels(labels, tmp_path / "l")
    save_labels_per_line(labels, tmp_path / "l_ref")
    assert (tmp_path / "l").read_bytes() == (tmp_path / "l_ref").read_bytes()


# not of the form [+-]?[0-9]+ after the strip: int() alone would read most of
# these (underscores, Unicode decimal digits, fullwidth digits)
_not_ascii_int = st.text(st.sampled_from("0123456789+-_ \u0661\u0662\uff13\u00b2")
                         | st.characters(codec="utf-8", exclude_characters=",#\n\r"),
                         min_size=1, max_size=8).filter(
    lambda t: t.strip() and not re.fullmatch(r"[+-]?[0-9]+", t.strip()))


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662", "\uff13", "+", "-", "--1", "1.0", "0x1"])
def test_labels_reject_integers_that_are_not_ascii_digits(tmp_path, text):
    p = tmp_path / "l.txt"
    p.write_text(f"0\n{text}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{p}:2: not an integer label"):
        load_labels(p)
    p.write_text(f"0,1,0\n2,{text},1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{p}:2: "):
        load_labels(p)


def test_labels_accept_signs_and_padding(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text(" +1 \n007\n-0\n", encoding="utf-8")
    assert np.array_equal(load_labels(p), [1, 7, 0])
    p.write_text("+0 , 2,\t+3\n", encoding="utf-8")
    assert np.array_equal(load_labels(p), [3, 3, 3])


@settings(max_examples=150, deadline=None)
@given(bad=_not_ascii_int, where=st.sampled_from(["frame", "start", "end", "class", "boundary"]))
def test_cli_rejects_any_integer_text_not_ascii_digits_naming_file_and_line(bad, where):
    lines = {"frame": ["0", "1", bad],
             "start": ["0,1,0", f"{bad},3,1"],
             "end": ["0,1,0", f"2,{bad},1"],
             "class": ["0,1,0", f"2,3,{bad}"],
             "boundary": ["# cuts", "3", bad]}[where]
    with tempfile.TemporaryDirectory() as tmp:
        path, other = os.path.join(tmp, "x.txt"), os.path.join(tmp, "gt.labels")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        if where == "boundary":
            probs = os.path.join(tmp, "p.feat")
            save_features(np.full((12, 3), 1 / 3), probs)
            argv = ["refine", "--probs", probs, "--boundaries", path]
        else:
            save_labels([0, 0, 1, 1], other)
            argv = ["eval", "--pred", path, "--gt", other]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == 2 and f"{path}:{len(lines)}: " in err.getvalue(), err.getvalue()


def test_cli_eval_negative_label_exits_two(tmp_path, capsys):
    pred, gt = tmp_path / "pred.labels", tmp_path / "gt.labels"
    pred.write_text("0\n1\n-3\n")
    gt.write_text("0\n1\n1\n")
    assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    assert f"{pred}:3: negative label -3" in capsys.readouterr().err


def test_cli_train_label_beyond_classes_exits_two(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    save_features(rng.normal(size=(4, 3)), data / "seq_000.feat")
    (data / "seq_000.labels").write_text("0\n1\n8\n1\n")
    # the default model has 8 classes, so label 8 is out of range
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")])
    assert code == 2
    assert str(data / "seq_000.labels") in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


_label_line = st.one_of(
    st.integers(-5, 40).map(str),
    st.tuples(st.integers(-2, 40), st.integers(-2, 40), st.integers(-3, 9)).map(
        lambda t: ",".join(map(str, t))),
    st.text(st.characters(codec="utf-8"), max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    text=st.one_of(st.text(st.characters(codec="utf-8")),
                   st.lists(_label_line, max_size=12).map("\n".join)),
    text_is_pred=st.booleans(),
)
def test_cli_eval_any_label_text_exits_zero_or_two(text, text_is_pred):
    with tempfile.TemporaryDirectory() as tmp:
        fuzz, fixed = os.path.join(tmp, "fuzz.labels"), os.path.join(tmp, "fixed.labels")
        with open(fuzz, "w", encoding="utf-8") as f:
            f.write(text)
        with open(fixed, "w") as f:
            f.write("0\n0\n1\n1\n2\n")
        pred, gt = (fuzz, fixed) if text_is_pred else (fixed, fuzz)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["eval", "--pred", pred, "--gt", gt])
    assert code in (0, 2), sink.getvalue()


def _first_bad_byte(data: bytes):
    """(line, offset) of the first byte of `data` that is not UTF-8, the
    line counted as iterating a text file counts it; None if all of it is."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8") + "x"
        return len(io.StringIO(head, newline=None).readlines()), exc.start
    return None


# per command and option that read a text file: its argv, with {bad} where
# that file goes, and a first line its reader accepts (CRLF and CR endings
# too, which the line count must follow)
_TEXT_INPUTS = {
    "eval --pred": (["eval", "--pred", "{bad}", "--gt", "{labels}"], b"0\n"),
    "eval --gt": (["eval", "--pred", "{labels}", "--gt", "{bad}"], b"# gt\r\n"),
    "train --config": (["train", "--config", "{bad}", "--data", "{dir}", "--out", "{dir}/m"],
                       b"[model]\n"),
    "flops --config": (["flops", "--config", "{bad}"], b"[model]\r"),
    "inspect-mask --config": (["inspect-mask", "--T", "8", "--layer", "0", "--config", "{bad}"],
                              b"[model]\n"),
    "synth --spec": (["synth", "--spec", "{bad}", "--out", "{dir}/s", "--n", "1",
                      "--frames", "8"], b"[synth]\n"),
    "refine --boundaries": (["refine", "--probs", "{probs}", "--boundaries", "{bad}"], b"3\n"),
}


@pytest.mark.parametrize("command", sorted(_TEXT_INPUTS))
def test_cli_names_the_file_line_and_byte_of_text_that_is_not_utf8(tmp_path, capsys, command):
    # a 0xff byte, never UTF-8, on the second line, after one each reader
    # takes: the message names the file, the line and the byte's offset
    argv, first = _TEXT_INPUTS[command]
    bad, labels, probs = tmp_path / "bad.txt", tmp_path / "ok.labels", tmp_path / "p.feat"
    bad.write_bytes(first + b"1\xff\n")
    save_labels([0, 0, 1, 1], labels)
    save_features(np.full((4, 3), 1 / 3), probs)
    names = {"bad": bad, "labels": labels, "probs": probs, "dir": tmp_path}
    code = cli.main([a.format(**names) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2, (out, err)
    assert err == f"error: {bad}:2: not UTF-8 text: byte 0xff at offset {len(first) + 1}\n"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48) | st.lists(st.sampled_from(
    [b"0", b"1", b"7", b"-", b" ", b"#", b"\n", b"\r", b"\r\n", b"0,2,1", b"3,4,0",
     b"\xff", b"\xc3", b"\xa9", b"\xe2\x82\xac", b"\xed\xa0\x80"]), max_size=24).map(b"".join))
# a valid first line that is no label, then a truncated sequence: the bad
# byte is named, not the first line
@example(b"\xe2\x82\xac\n\xc3")
def test_load_labels_over_any_bytes_loads_or_names_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.labels")
        with open(path, "wb") as f:
            f.write(data)
        try:
            labels = load_labels(path)
        except ValueError as exc:
            message = str(exc)
        else:
            message = None
    bad = _first_bad_byte(data)
    if bad is not None:
        line, at = bad
        assert message == f"{path}:{line}: not UTF-8 text: byte 0x{data[at]:02x} at offset {at}"
    elif message is None:
        assert labels.dtype == np.int64 and labels.size > 0 and labels.min() >= 0
    else:
        assert message.startswith(f"{path}:") or message.startswith(f"{path} "), message


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 30)), min_size=1, max_size=12))
def test_segment_file_round_trips_through_load_labels(runs):
    labels = np.concatenate([np.full(n, label) for label, n in runs])
    segments = frames_to_segments(labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.segments")
        save_segment_file(path, segments)
        back = load_labels(path)
    assert np.array_equal(back, labels)
    assert frames_to_segments(back) == segments


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


def test_synth_sequence_peaks_at_about_one_feature_matrix():
    # the noise goes in by row blocks: no second or third [T, D] array
    spec = SynthSpec(n_classes=3, durations=((50.0, 5.0),) * 3, d_features=256, seed=4)
    draw = np.random.default_rng(0)
    prototypes = draw.normal(size=(3, 256))
    tracemalloc.start()
    try:
        feats, _, _ = synth_sequence(spec, 2048, draw, prototypes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * feats.nbytes, peak / feats.nbytes


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


def _config_argv(command, path, tmp_path):
    if command == "synth":
        return ["synth", "--n", "1", "--frames", "8", "--out", str(tmp_path / "out"),
                "--spec", str(path)]
    return ["flops", "--T", "64", "--config", str(path)]


@pytest.mark.parametrize("command, text, key", [
    ("flops", "[model]\nd_modle = 128\n", "d_modle"),
    ("flops", "[train]\nlearning_rate = 0.1\n", "learning_rate"),
    ("synth", "[synth]\nn_clases = 3\n", "n_clases"),
    ("synth", "[synth]\ndurations = 5,x\n", "durations"),
    ("flops", "[modle]\nd_model = 128\n", "modle"),
    ("flops", "[model]\ndilate_shrinking = maybe\n", "dilate_shrinking"),
    ("flops", "[model]\nboundary_sigma_frac = 0.1\n", "boundary_sigma_frac"),
    ("flops", "[model]\ntau = nan\n", "tau"),
    ("flops", "[train]\nlr = inf\n", "lr"),
    ("flops", "[model]\nheads = two\n", "heads"),
    ("flops", "[model]\nheads = 3\n", "heads"),
    ("flops", "d_model = 128\n", "d_model"),
    ("flops", "[model]\nd_model = 64\n[model]\nheads = 4\n", "model"),
    ("flops", "[model]\nheads = 4\nheads = 2\n", "heads"),
    ("flops", "[model]\nd_model = 5%\n", "d_model"),
    ("flops", "[train]\nseed = 5\n", "[model] seed"),
])
def test_cli_bad_config_exits_two_naming_file_and_key(tmp_path, capsys, command, text, key):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    code = cli.main(_config_argv(command, path, tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert str(path) in err and key in err, err


@pytest.mark.parametrize("command, section, key, value", [
    ("flops", "train", "lr", "-1"),
    ("flops", "train", "lr", "0"),
    ("flops", "train", "max_epochs", "0"),
    ("flops", "train", "patience", "-2"),
    ("flops", "train", "target_accuracy", "1.5"),
    ("flops", "model", "seed", "-1"),
    ("flops", "model", "kernel_size", "2"),
    ("flops", "model", "heads", "1"),
    ("flops", "model", "w_max", "8"),
    ("synth", "synth", "n_classes", "1"),
    ("synth", "synth", "d_features", "0"),
    ("synth", "synth", "fps", "-1"),
    ("synth", "synth", "noise", "-1"),
    ("synth", "synth", "prototype_spread", "-1"),
    ("synth", "synth", "transition_fraction", "0.5"),
    ("synth", "synth", "seed", "-1"),
    ("synth", "synth", "durations", "6,-1"),
    ("synth", "synth", "durations", "6,inf"),
    ("synth", "synth", "durations", "6,1,2"),
])
def test_cli_out_of_range_config_exits_two_naming_file_and_key(
        tmp_path, capsys, command, section, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    code = cli.main(_config_argv(command, path, tmp_path))
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{path} [{section}]: {key} must be" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("sigma_divisor", "0"),
    ("sigma_divisor", "-2"),
    ("tau", "0"),
    ("focal_gamma", "-1"),
    ("dice_smooth", "-1"),
    ("loss_alpha", "-0.5"),
    ("loss_beta", "-1"),
    ("loss_gamma", "-1"),
    ("loss_delta", "-1"),
    ("boundary_min_distance", "0"),
    ("kernel_size", "2"),
    ("heads", "1"),
    ("w_min", "8"),
])
def test_cli_train_rejects_bad_loss_and_decoding_values_before_training(
        tmp_path, capsys, key, value):
    _cli_fixture(str(tmp_path))
    config, out = tmp_path / "tiny.cfg", tmp_path / "out.ckpt"
    text = re.sub(rf"^{key} = .*\n", "", config.read_text(), flags=re.M)
    config.write_text(text.replace("[train]", f"{key} = {value}\n[train]"))
    code = cli.main(["train", "--config", str(config), "--data", str(tmp_path / "data"),
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and str(config) in captured.err and key in captured.err, captured.err
    assert "epoch" not in captured.out and not out.exists()


def test_cli_config_with_retired_keys_at_their_values_runs(tmp_path, capsys):
    assert cli.main(["flops", "--T", "64"]) == 0
    default = capsys.readouterr().out
    path = tmp_path / "old.cfg"
    path.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in retired.items())
        for section, retired in (("model", RETIRED_KEYS), ("train", RETIRED_TRAIN_KEYS))
    ))
    assert cli.main(_config_argv("flops", path, tmp_path)) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
def test_cli_config_with_a_retired_key_at_another_value_exits_two(tmp_path, capsys, key):
    only = RETIRED_KEYS[key]
    wrong = (not only) if isinstance(only, bool) else only * 2
    path = tmp_path / "old.cfg"
    path.write_text(f"[model]\n{key} = {wrong}\n")
    code = cli.main(_config_argv("flops", path, tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.err
    assert f"{path} [model]: {key} was removed and may only be {only}" in captured.err


@pytest.mark.parametrize("value", ["-3", "1", "0.25"])
def test_cli_config_with_val_fraction_other_than_zero_exits_two(tmp_path, capsys, value):
    path = tmp_path / "old.cfg"
    path.write_text(f"[train]\nval_fraction = {value}\n")
    code = cli.main(_config_argv("flops", path, tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "", captured.err
    assert f"{path} [train]: val_fraction was removed and may only be 0.0" in captured.err


def test_cli_train_prints_each_epoch_then_the_summary(tmp_path, capsys):
    config, data_dir = tiny_files(tmp_path, tiny_run())
    assert cli.main(["train", "--config", str(config), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" loss ")[0] for line in lines[:2]] == ["epoch 1", "epoch 2"], lines
    assert all(" fit_acc " in line for line in lines[:2])
    # the eval pass runs after the last epoch, whose train_acc the summary repeats
    assert "train_acc" not in lines[0] and len(lines) == 3
    assert re.fullmatch(r"best epoch [12] loss \d+\.\d{6} train_acc \d\.\d{4}", lines[2])
    assert _logged(lines[2], "train_acc") == _logged(lines[1], "train_acc")


def test_cli_train_prints_why_it_stopped(tmp_path, capsys):
    _cli_fixture(str(tmp_path))
    config = tmp_path / "tiny.cfg"
    config.write_text(config.read_text().replace(
        "max_epochs = 1", "max_epochs = 3\ntarget_accuracy = 0.01"))
    assert cli.main(["train", "--config", str(config), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out.ckpt")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("epoch 1 loss ") and lines[2].startswith("best epoch 1 "), lines
    assert lines[1:2] == ["target accuracy 0.01 reached at epoch 1"], lines


_CONFIG_KEYS = sorted(
    {f.name for f in fields(ModelConfig)} | set(RETIRED_KEYS) | set(RETIRED_TRAIN_KEYS)
    | {f.name for f in fields(RunConfig)} | {"seed", "learning_rate"}
)
_config_value = st.one_of(
    st.integers(-2, 64).map(str),
    st.floats().map(str),
    st.sampled_from(["true", "False", "on", "0", "maybe", "%", ""]),
    st.text(st.characters(codec="utf-8"), max_size=8),
)
_config_line = st.one_of(
    st.sampled_from(["[model]", "[train]", "[synth]", "[DEFAULT]"]),
    st.tuples(st.sampled_from(_CONFIG_KEYS), _config_value).map(" = ".join),
)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(
    st.text(st.characters(codec="utf-8")),
    st.lists(_config_line, max_size=10).map(lambda lines: "[model]\n" + "\n".join(lines)),
))
def test_cli_flops_any_config_text_exits_zero_or_two(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["flops", "--T", "64", "--config", path])
    assert code in (0, 2), sink.getvalue()


# Every subcommand with a valid argument vector over the fixture files that
# _cli_fixture writes; the fuzz test below drops, replaces and adds to them.
_CLI_VALID = {
    "synth": ["--out", "out", "--n", "2", "--frames", "20"],
    "train": ["--config", "tiny.cfg", "--data", "data", "--out", "out.ckpt"],
    "infer": ["--ckpt", "tiny.ckpt", "--features", "x.feat", "--out", "out"],
    "eval": ["--pred", "x.labels", "--gt", "x.segments", "--thresholds", "0.1,0.5"],
    "refine": ["--probs", "probs.feat", "--boundaries", "bounds.txt"],
    "inspect-mask": ["--T", "20", "--layer", "1", "--config", "tiny.cfg"],
    "flops": ["--T", "30", "--config", "tiny.cfg"],
}
_CLI_FLAGS = sorted({a for argv in _CLI_VALID.values() for a in argv if a.startswith("--")}
                    | {"--spec", "--no-refine", "--x100", "--report", "-h"})
_CLI_FILES = ["data", "tiny.cfg", "tiny.ckpt", "x.feat", "x.labels", "x.segments",
              "probs.feat", "bounds.txt", "missing", "out", "out.ckpt"]
# no digits (int() reads every Unicode digit, so "--n" could ask for millions
# of sequences) and no path separators or dots, so every path stays in the
# example's directory
_cli_text = st.text(st.characters(codec="utf-8", exclude_categories=("Nd",),
                                  exclude_characters="/\\."), max_size=8)
_cli_value = st.one_of(st.sampled_from(_CLI_FILES), st.integers(-3, 40).map(str),
                       st.sampled_from(["0.5", "1,2", "nan", "-"]), _cli_text)


def _cli_fixture(tmp):
    """A tiny model's config and checkpoint, a two-sequence training
    directory, and feature, label, segment, probability and boundary files."""
    model = tiny_run().model
    with open(os.path.join(tmp, "tiny.cfg"), "w") as f:
        f.write("[model]\n" + "".join(
            f"{k} = {getattr(model, k)}\n" for k in ("n_classes", "d_in", "d_model", "n_blocks",
                                                   "n_decoders", "heads", "s_avg", "w_min",
                                                   "w_max")))
        f.write("[train]\nmax_epochs = 1\n")
    save_checkpoint(os.path.join(tmp, "tiny.ckpt"), model, SegmentationModel(model).params)
    os.mkdir(os.path.join(tmp, "data"))
    for i, (feats, labels, segs) in enumerate(tiny_data()):
        save_features(feats, os.path.join(tmp, "data", f"s{i}.feat"))
        save_labels(labels, os.path.join(tmp, "data", f"s{i}.labels"))
    save_features(feats, os.path.join(tmp, "x.feat"))
    save_labels(labels, os.path.join(tmp, "x.labels"))
    save_segment_file(os.path.join(tmp, "x.segments"), segs)
    save_features(np.full((24, 3), 1.0 / 3), os.path.join(tmp, "probs.feat"))
    with open(os.path.join(tmp, "bounds.txt"), "w") as f:
        f.write("6\n13\n")


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(sorted(_CLI_VALID)),
    edits=st.lists(st.sampled_from(["keep", "keep", "keep", "drop", "replace"]),
                   min_size=3, max_size=3),
    values=st.lists(_cli_value, min_size=3, max_size=3),
    extra=st.one_of(st.just([]), st.lists(
        st.one_of(st.sampled_from(_CLI_FLAGS), _cli_value), min_size=1, max_size=4)),
)
def test_cli_any_argument_vector_exits_zero_or_two(command, edits, values, extra):
    """Each flag of the valid vector is kept, dropped or given another
    value; then the `extra` tokens follow. Exit 0 or 2, never a traceback."""
    base = _CLI_VALID[command]
    argv = [command]
    for (flag, value), edit, other in zip(zip(base[::2], base[1::2]), edits, values):
        if edit != "drop":
            argv += [flag, other if edit == "replace" else value]
    argv += extra
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _cli_fixture(tmp)
        sink = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors and --help
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2), (argv, sink.getvalue())
    assert "Traceback" not in sink.getvalue(), argv


# -- training and inference ----------------------------------------------


def test_train_smoke_and_checkpoint(tmp_path):
    data = tiny_data()
    ckpt = tmp_path / "best.ckpt"
    result = train(tiny_run(), data, ckpt_path=ckpt)
    assert len(result.epoch_losses) == 2
    # every epoch's line has its loss and fit_acc; the eval pass, train_acc,
    # runs after the last epoch only when no target accuracy is set
    assert all(" loss " in line and " fit_acc " in line for line in result.log)
    assert ["train_acc" in line for line in result.log] == [False, True]
    assert ckpt.exists()
    cfg, params, extra = load_checkpoint(ckpt)
    assert extra == {}  # parameters only, no optimizer state
    assert 0.0 <= result.final_train_accuracy <= 1.0


def test_train_reads_only_features_and_labels(tmp_path):
    # the loss derives each sequence's segments from its labels, so
    # (features, labels) pairs train exactly as synth_dataset's triples
    triples = tiny_data()
    runs = []
    for i, data in enumerate((triples, [(feats, labels) for feats, labels, _ in triples])):
        ckpt = tmp_path / f"{i}.ckpt"
        result = train(tiny_run(), data, ckpt_path=ckpt)
        runs.append((result.log, result.epoch_losses, ckpt.read_bytes()))
    assert runs[0] == runs[1]


def test_train_reruns_bit_identical():
    data = tiny_data()
    a = train(tiny_run(), data)
    b = train(tiny_run(), data)
    assert a.log == b.log
    assert a.epoch_losses == b.epoch_losses


def _epoch_lines(log):
    return [line for line in log if line.startswith("epoch ")]


def _logged(line: str, field: str) -> str:
    """The text after `field` in a log line."""
    return re.search(rf" {field} (\S+)", line).group(1)


def _train_counting_passes(monkeypatch, run, tmp_path, name):
    """train(run) with a checkpoint: its result, its checkpoint's bytes and
    the epoch after which each eval pass (`_train_accuracy`) ran."""
    passes, lines = [], []
    accuracy = pipeline._train_accuracy

    def counted(model, dataset):
        passes.append(len(lines) + 1)  # it runs before its epoch's line
        return accuracy(model, dataset)

    def log_fn(line):
        if line.startswith("epoch "):
            lines.append(line)

    monkeypatch.setattr(pipeline, "_train_accuracy", counted)
    ckpt = tmp_path / f"{name}.ckpt"
    result = train(run, tiny_data(), ckpt_path=ckpt, log_fn=log_fn)
    return result, ckpt.read_bytes(), passes


@pytest.mark.parametrize("kw, epochs, when", [
    (dict(max_epochs=3), 3, [3]),  # no target: after the last epoch
    (dict(max_epochs=6, patience=0), 4, [4]),  # early stop: at the epoch it stops on
])
def test_the_eval_pass_runs_only_where_it_is_read(monkeypatch, tmp_path, kw, epochs, when):
    result, ckpt, passes = _train_counting_passes(monkeypatch, tiny_run(**kw), tmp_path, "a")
    assert passes == when and len(result.epoch_losses) == epochs
    lines = _epoch_lines(result.log)
    assert [i + 1 for i, line in enumerate(lines) if "train_acc" in line] == when
    assert _logged(lines[-1], "train_acc") == f"{result.final_train_accuracy:.4f}"
    # a target of 1.0, which these runs never reach, runs the pass every
    # epoch; nothing else in the run changes, down to the bits
    forced, forced_ckpt, forced_passes = _train_counting_passes(
        monkeypatch, tiny_run(**kw, target_accuracy=1.0), tmp_path, "b")
    assert forced_passes == list(range(1, epochs + 1))
    assert all("train_acc" in line for line in _epoch_lines(forced.log))
    assert not any(line.startswith("target accuracy") for line in forced.log)
    assert forced.epoch_losses == result.epoch_losses and forced_ckpt == ckpt
    assert forced.final_train_accuracy == result.final_train_accuracy
    assert (forced.best_epoch, forced.best_loss) == (result.best_epoch, result.best_loss)
    if kw.get("patience") == 0:
        assert result.log[-1] == "early stop at epoch 4 (best 3)" == forced.log[-1]


def test_fit_acc_is_the_final_stage_accuracy_of_the_training_forwards(monkeypatch):
    # recorded from every training forward, per epoch: the frames where the
    # final stage's largest logit is at the label
    hits, forward = [], SegmentationModel.forward

    def recording(self, x, training=False):
        out = forward(self, x, training=training)
        if training:
            hits.append(out.stages[-1].action_logits.data.argmax(axis=1))
        return out

    monkeypatch.setattr(SegmentationModel, "forward", recording)
    data = tiny_data()
    result = train(tiny_run(max_epochs=3), data)
    labels = np.concatenate([labels for _, labels, _ in data])
    lines = _epoch_lines(result.log)
    assert len(hits) == 3 * len(data) and len(lines) == 3
    for epoch, line in enumerate(lines):
        got = np.concatenate(hits[epoch * len(data) : (epoch + 1) * len(data)])
        assert _logged(line, "fit_acc") == f"{np.mean(got == labels):.4f}", line


def _poison_second_backward(monkeypatch, names):
    """After train()'s second backward (epoch 1, sequence 1), a NaN in the
    gradient of each named parameter. Returns the models train() builds and
    a dict that then holds each parameter's value at that point."""
    models, calls, before = [], [], {}

    class Recorded(SegmentationModel):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            models.append(self)

    backward = Tensor.backward

    def poisoned(self):
        backward(self)
        calls.append(None)
        if len(calls) == 2:
            params = models[-1].params
            before.update((k, p.data.copy()) for k, p in params.items())
            for name in names:
                params[name].grad.flat[-1] = np.nan

    monkeypatch.setattr(pipeline, "SegmentationModel", Recorded)
    monkeypatch.setattr(Tensor, "backward", poisoned)
    return models, before


def test_nonfinite_gradient_names_the_first_parameter_before_the_step(monkeypatch):
    names = ["dec0.head.boundary.w", "enc_tcn.0.pw.w"]  # model.params order: pw.w first
    models, before = _poison_second_backward(monkeypatch, names)
    with pytest.raises(TrainingError) as err:
        train(tiny_run(), tiny_data())
    assert str(err.value) == (
        "non-finite gradient at epoch 1, sequence 1, parameter enc_tcn.0.pw.w")
    # Adam never saw the NaN: every parameter is as the backward left it
    for name, p in models[-1].params.items():
        assert np.array_equal(p.data, before[name]), name


def test_cli_train_nonfinite_gradient_exits_one_naming_the_parameter(
        tmp_path, monkeypatch, capsys):
    config, data_dir = tiny_files(tmp_path, tiny_run())
    _poison_second_backward(monkeypatch, ["dec0.head.action.b"])
    code = cli.main(["train", "--config", str(config), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")])
    assert code == 1
    assert capsys.readouterr().err == (
        "training aborted: non-finite gradient at epoch 1, sequence 1,"
        " parameter dec0.head.action.b\n")
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_load_dataset_keeps_float32_features(tmp_path):
    _, data_dir = tiny_files(tmp_path, tiny_run())
    dataset = cli._load_dataset(data_dir, 3)
    assert len(dataset) == 2
    # (features, labels) pairs: the loss derives the segments from the labels
    for (feats, labels), (ref, ref_labels, _) in zip(dataset, tiny_data()):
        assert feats.dtype == np.float32
        assert np.array_equal(feats, ref.astype(np.float32))
        assert np.array_equal(labels, ref_labels)


def test_two_training_steps_hold_under_a_tenth_of_one_tape():
    # train()'s loop: the last step's `loss` stays referenced, and backward
    # has released its graph, so no tape and no interior gradient is held
    cfg = ModelConfig(n_classes=3, d_in=6, d_model=32, n_blocks=2, n_decoders=1,
                      heads=4, s_avg=8, w_min=2, w_max=8)
    ((feats, labels, _),) = tiny_data(n=1, T=128)
    model = SegmentationModel(cfg)
    opt = Adam(model.parameters(), lr=1e-3)
    _sequence_loss(model, feats, labels, training=True)  # warms the allocator
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step in range(2):
            loss = _sequence_loss(model, feats, labels, training=True)[1]
            if step == 0:
                tape = tracemalloc.get_traced_memory()[0] - before
            loss.backward()
            opt.step()
            opt.zero_grad()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tape > 1e6, f"tape {tape / 1e6:.2f} MB"
    assert held < 0.1 * tape, f"held {held / 1e6:.2f} MB of a {tape / 1e6:.2f} MB tape"


def test_training_step_keeps_only_what_backward_reads():
    # criterion 4's model at T = 512: the tape keeps nodes, closures and the
    # arrays backward reads; interior values nothing reads are freed as the
    # forward drops them, which about halves what a step holds
    cfg = ModelConfig(n_classes=4, d_in=64, d_model=64, n_blocks=4, n_decoders=2, heads=8,
                      temporal_dropout=0.3, seed=0)
    spec = SynthSpec(n_classes=4, durations=((60.0, 15.0),) * 4, d_features=64, seed=11)
    ((feats, labels, _),) = synth_dataset(spec, 1, 512)
    model = SegmentationModel(cfg)
    _sequence_loss(model, feats, labels, training=True)  # warms the allocator
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = _sequence_loss(model, feats, labels, training=True)[1]
        live = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert live < 20e6, f"live after forward+loss {live / 1e6:.1f} MB"
    assert peak < 20e6, f"backward peak {peak / 1e6:.1f} MB"


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
        free32 = model.forward(Tensor(feats.astype(np.float32)))
    res = infer(model, feats)
    # float64 taped against float64 no_grad, and infer against a float32
    # no_grad forward: both bit-exact
    for ref, out in ((taped, free), (free32, res.output)):
        for a, b in zip(ref.stages, out.stages):
            for name in ("action_logits", "boundary_scores", "features"):
                ta, tb = getattr(a, name), getattr(b, name)
                assert ta.data.dtype == tb.data.dtype
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


class _ReaderGone(io.StringIO):
    """A stdout whose reader goes away after `lines` whole lines."""

    def __init__(self, lines):
        super().__init__()
        self.lines = lines

    def write(self, s):
        if self.getvalue().count("\n") >= self.lines:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(s)


def test_cli_inspect_mask_prints_one_query_at_a_time(monkeypatch, capsys):
    # no array of 10^12 entries is made: each line comes from the window's
    # offsets as it is printed, so a reader that stops gets exit 2
    out = _ReaderGone(3)
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main(["inspect-mask", "--T", str(10**12), "--layer", "0"])
    monkeypatch.undo()
    assert out.getvalue().splitlines() == [
        "# expanding: width 16, rate 0, pairs 32999999999728",
        "0: " + " ".join(map(str, range(17))),
        "1: " + " ".join(map(str, range(18))),
    ]
    assert code == 2
    err = capsys.readouterr().err
    assert "Broken pipe" in err and "internal error" not in err


def test_cli_counts_pairs_beyond_int64(monkeypatch, capsys):
    # 10^19 frames overflow int64: flops exits 0, and inspect-mask prints
    # the exact pair count until its reader goes
    T = 10**19
    assert cli.main(["flops", "--T", str(T)]) == 0
    assert f"at T={T}" in capsys.readouterr().out
    out = _ReaderGone(1)
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main(["inspect-mask", "--T", str(T), "--layer", "0"])
    monkeypatch.undo()
    assert out.getvalue() == f"# expanding: width 16, rate 0, pairs {33 * T - 16 * 17}\n"
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


def test_cli_validation_errors_exit_two(tmp_path):
    r = _cli("eval", "--pred", str(tmp_path / "nope.txt"), "--gt", str(tmp_path / "nope.txt"))
    assert r.returncode == 2
    bad = tmp_path / "bad.feat"
    bad.write_bytes(b"JUNKJUNKJUNK")
    r = _cli("infer", "--ckpt", str(tmp_path / "none.ckpt"), "--features", str(bad),
             "--out", str(tmp_path / "o.txt"))
    assert r.returncode == 2


@pytest.mark.parametrize("name, bad", [
    ("enc_attn.0.ln1.g", (1,)),    # would broadcast silently
    ("enc_tcn.0.conv.b", (1,)),
    ("enc_head.action.w", (8, 3)),
])
def test_cli_infer_checkpoint_with_a_wrong_parameter_shape_names_it(tmp_path, capsys, name, bad):
    cfg = ModelConfig(n_classes=2, d_in=2, d_model=8, n_blocks=1, n_decoders=1,
                      heads=2, s_avg=4, w_min=1, w_max=1)
    params = dict(SegmentationModel(cfg).params)
    want = params[name].shape
    params[name] = Tensor(np.ones(bad))
    ckpt, feat = tmp_path / "m.ckpt", tmp_path / "x.feat"
    save_checkpoint(ckpt, cfg, params)
    save_features(rng.normal(size=(20, 2)), feat)
    code = cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert all(str(x) in err for x in (ckpt, repr(name), bad, want)), err


def test_cli_infer_checkpoint_with_a_non_utf8_parameter_name_names_file_and_offset(
        tmp_path, capsys):
    cfg = tiny_run().model
    ckpt, feat = tmp_path / "m.ckpt", tmp_path / "x.feat"
    save_checkpoint(ckpt, cfg, SegmentationModel(cfg).params)
    data = ckpt.read_bytes()
    (n,) = struct.unpack_from("<I", data, 8)
    at = 20 + n  # the first parameter name's first byte
    ckpt.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    save_features(rng.normal(size=(12, cfg.d_in)), feat)
    code = cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{ckpt}: parameter name at byte {at} is not UTF-8" in err, err


def test_cli_train_on_files_of_two_widths_names_the_odd_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for i, width in enumerate((6, 6, 4)):
        save_features(rng.normal(size=(5, width)), data / f"seq_{i:03d}.feat")
        save_labels(np.zeros(5, dtype=np.int64), data / f"seq_{i:03d}.labels")
    code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert code == 2 and str(data / "seq_002.feat") in err and str(data / "seq_000.feat") in err, err
    assert not (tmp_path / "m.ckpt").exists()


def test_cli_train_on_a_one_frame_file_names_it(tmp_path, capsys):
    run = tiny_run()
    config, data_dir = tiny_files(tmp_path, run)
    short = data_dir / "seq_999.feat"
    save_features(rng.normal(size=(1, run.model.d_in)), short)
    save_labels(np.zeros(1, dtype=np.int64), data_dir / "seq_999.labels")
    code = cli.main(["train", "--config", str(config), "--data", str(data_dir),
                     "--out", str(tmp_path / "m.ckpt")])
    captured = capsys.readouterr()
    assert code == 2 and f"{short}: training needs at least 2 frames, found 1" in captured.err
    assert "epoch" not in captured.out and not (tmp_path / "m.ckpt").exists()


def test_cli_infer_feature_width_mismatch_names_the_features_file(tmp_path, capsys):
    cfg = ModelConfig(n_classes=2, d_in=2, d_model=2, n_blocks=1, n_decoders=1,
                      heads=2, s_avg=4, w_min=1, w_max=1)
    ckpt, feat = tmp_path / "m.ckpt", tmp_path / "x.feat"
    save_checkpoint(ckpt, cfg, SegmentationModel(cfg).params)
    save_features(rng.normal(size=(9, 3)), feat)
    code = cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and str(feat) in err and str(ckpt) in err, err


def test_cli_eval_length_mismatch_names_both_files(tmp_path, capsys):
    pred, gt = tmp_path / "pred.labels", tmp_path / "gt.labels"
    pred.write_text("0\n1\n1\n")
    gt.write_text("0\n1\n")
    assert cli.main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
    err = capsys.readouterr().err
    assert str(pred) in err and str(gt) in err, err


def test_cli_refine_bad_boundary_line_names_file_and_line(tmp_path, capsys):
    probs, bounds = tmp_path / "p.feat", tmp_path / "b.txt"
    save_features(rng.uniform(size=(12, 3)), probs)
    bounds.write_text("# cuts\n3\nx\n")
    assert cli.main(["refine", "--probs", str(probs), "--boundaries", str(bounds)]) == 2
    assert f"{bounds}:3" in capsys.readouterr().err
    bounds.write_text("3\n40\n")
    assert cli.main(["refine", "--probs", str(probs), "--boundaries", str(bounds)]) == 2
    assert str(bounds) in capsys.readouterr().err
    bounds.write_text("3\n  # indented comment\n7\n")
    assert cli.main(["refine", "--probs", str(probs), "--boundaries", str(bounds)]) == 0


@pytest.mark.parametrize("command, text", [
    ("flops", "[DEFAULT]\nlr = 0.1\n[model]\nd_model = 64\n"),
    ("flops", "[DEFAULT]\n[model]\nd_model = 64\n"),
    ("synth", "[DEFAULT]\nseed = 2\n[synth]\nn_classes = 3\n"),
])
def test_cli_default_section_is_reported_as_such(tmp_path, capsys, command, text):
    path = tmp_path / "d.cfg"
    path.write_text(text)
    assert cli.main(_config_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "[DEFAULT]" in err and "[model]" not in err, err


@pytest.mark.parametrize("value", ["2,x", "0.5,", "2", "0.1,nan"])
def test_cli_eval_bad_thresholds_name_the_flag(tmp_path, capsys, value):
    labels = tmp_path / "l.txt"
    labels.write_text("0\n1\n1\n")
    code = cli.main(["eval", "--pred", str(labels), "--gt", str(labels), "--thresholds", value])
    err = capsys.readouterr().err
    assert code == 2 and "--thresholds" in err and value.split(",")[-1] in err, err


def test_cli_infer_every_truncated_file_exits_two(tmp_path, capsys):
    cfg = ModelConfig(n_classes=2, d_in=2, d_model=2, n_blocks=1, n_decoders=1,
                      heads=2, s_avg=4, w_min=1, w_max=1)
    ckpt, feat, cut = tmp_path / "m.ckpt", tmp_path / "x.feat", tmp_path / "cut.bin"
    save_checkpoint(ckpt, cfg, SegmentationModel(cfg).params)
    save_features(rng.normal(size=(5, 2)), feat)
    for flag, good in (("--ckpt", ckpt), ("--features", feat)):
        data = good.read_bytes()
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            files = {"--ckpt": str(ckpt), "--features": str(feat), flag: str(cut)}
            argv = ["infer", "--out", str(tmp_path / "out")]
            for k, v in files.items():
                argv += [k, v]
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code == 2 and str(cut) in err, (flag, n, err)
    assert cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                     "--out", str(tmp_path / "out")]) == 0


@functools.lru_cache(maxsize=None)
def _tiny_checkpoint():
    """A tiny checkpoint's bytes and the offsets of its header bytes: magic,
    version, config length and text, parameter count, and each parameter's
    name length, name, rank and shape (not its values)."""
    cfg = ModelConfig(n_classes=2, d_in=2, d_model=2, n_blocks=1, n_decoders=1,
                      heads=2, s_avg=4, w_min=1, w_max=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(path, cfg, SegmentationModel(cfg).params)
        with open(path, "rb") as f:
            data = f.read()
    (n,) = struct.unpack_from("<I", data, 8)
    header = list(range(16 + n))
    pos = 16 + n
    (count,) = struct.unpack_from("<I", data, pos - 4)
    for _ in range(count):
        (ln,) = struct.unpack_from("<I", data, pos)
        (rank,) = struct.unpack_from("<I", data, pos + 4 + ln)
        shape = struct.unpack_from(f"<{rank}Q", data, pos + 8 + ln)
        end = pos + 8 + ln + 8 * rank
        header += range(pos, end)
        pos = end + 4 * int(np.prod(shape))  # float32 values
    assert pos == len(data)
    return data, tuple(header)


@settings(max_examples=200, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_cli_infer_checkpoint_with_flipped_header_bytes_exits_zero_or_two(flips):
    data, header = _tiny_checkpoint()
    corrupt = bytearray(data)
    for at, mask in flips:
        corrupt[header[at % len(header)]] ^= mask
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, feat = os.path.join(tmp, "m.ckpt"), os.path.join(tmp, "x.feat")
        with open(ckpt, "wb") as f:
            f.write(corrupt)
        save_features(np.linspace(-1.0, 1.0, 10).reshape(5, 2), feat)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["infer", "--ckpt", ckpt, "--features", feat,
                             "--out", os.path.join(tmp, "out")])
    assert code in (0, 2), (flips, sink.getvalue())
    assert "Traceback" not in sink.getvalue(), flips


@pytest.mark.parametrize("flag", ["--ckpt", "--features", "--pred", "--gt"])
def test_cli_directory_as_input_file_exits_two_naming_it(tmp_path, capsys, flag):
    cfg = tiny_run().model
    files = {"--ckpt": tmp_path / "m.ckpt", "--features": tmp_path / "x.feat",
             "--pred": tmp_path / "p.labels", "--gt": tmp_path / "g.labels"}
    save_checkpoint(files["--ckpt"], cfg, SegmentationModel(cfg).params)
    save_features(rng.normal(size=(12, cfg.d_in)), files["--features"])
    save_labels([0, 1, 1], files["--pred"])
    save_labels([0, 1, 2], files["--gt"])
    files[flag] = tmp_path / "a_directory"
    files[flag].mkdir()
    if flag in ("--ckpt", "--features"):
        argv = ["infer", "--out", str(tmp_path / "out"), "--ckpt", str(files["--ckpt"]),
                "--features", str(files["--features"])]
    else:
        argv = ["eval", "--pred", str(files["--pred"]), "--gt", str(files["--gt"])]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and str(files[flag]) in err and "internal" not in err, err


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--n", "0", "--frames", "8"], "--n"),
    (["synth", "--n", "-1", "--frames", "8"], "--n"),
    (["synth", "--n", "2", "--frames", "0"], "--frames"),
    (["flops", "--T", "0"], "--T"),
    (["flops", "--T", "-5"], "--T"),
    (["inspect-mask", "--T", "0", "--layer", "0"], "--T"),
])
def test_cli_count_below_one_names_the_flag(tmp_path, capsys, argv, flag):
    if argv[0] == "synth":
        argv = argv + ["--out", str(tmp_path / "out")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and f"{flag} must be >= 1" in captured.err, captured
    assert "wrote" not in captured.out


def test_cli_train_on_files_equals_training_on_float64_features(tmp_path):
    run = tiny_run()
    config, data_dir = tiny_files(tmp_path, run)
    in_memory = [(feats.astype(np.float32).astype(np.float64), labels,
                  frames_to_segments(labels)) for feats, labels, _ in tiny_data()]
    train(run, in_memory, ckpt_path=tmp_path / "memory.ckpt")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--config", str(config), "--data", str(data_dir),
                         "--out", str(tmp_path / "files.ckpt")])
    assert code == 0
    assert (tmp_path / "files.ckpt").read_bytes() == (tmp_path / "memory.ckpt").read_bytes()


def test_cli_infer_from_a_version_1_checkpoint_matches_the_model(tmp_path, capsys):
    cfg = tiny_run().model
    model = SegmentationModel(cfg)
    ckpt, feat = tmp_path / "m.ckpt", tmp_path / "x.feat"
    ckpt.write_bytes(checkpoint_v1_bytes(cfg, model.params))
    save_features(rng.normal(size=(40, cfg.d_in)), feat)
    assert cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                     "--out", str(tmp_path / "out")]) == 0
    result = infer(model, load_features(feat))
    expected = tmp_path / "expected"
    expected.mkdir()
    for kind, labels in (("raw", result.raw_labels), ("refined", result.refined_labels)):
        save_labels(labels, expected / f"x.{kind}.labels")
        save_segment_file(expected / f"x.{kind}.segments", frames_to_segments(labels))
    names = sorted(os.listdir(expected))
    assert sorted(os.listdir(tmp_path / "out")) == names
    for name in names:
        assert (tmp_path / "out" / name).read_bytes() == (expected / name).read_bytes(), name


@pytest.mark.parametrize("T", [5, 37])
def test_cli_infer_from_version_1_and_2_checkpoints_writes_the_same_files(tmp_path, T):
    cfg = tiny_run().model
    params = SegmentationModel(cfg).params
    v1, v2, feat = tmp_path / "v1.ckpt", tmp_path / "v2.ckpt", tmp_path / "x.feat"
    v1.write_bytes(checkpoint_v1_bytes(cfg, params))
    save_checkpoint(v2, cfg, params)
    assert struct.unpack_from("<I", v2.read_bytes(), 4) == (2,)
    save_features(rng.normal(size=(T, cfg.d_in)), feat)
    written = {}
    for ckpt in (v1, v2):
        out, stdout = tmp_path / ckpt.stem, io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["infer", "--ckpt", str(ckpt), "--features", str(feat),
                             "--out", str(out)]) == 0
        files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        written[ckpt.stem] = files, stdout.getvalue().replace(str(out), "OUT")
    assert len(written["v1"][0]) == 4
    assert written["v1"] == written["v2"]
