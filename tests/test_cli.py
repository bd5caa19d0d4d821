import contextlib
import filecmp
import hashlib
import json
import multiprocessing
import os
import time
import tracemalloc
from datetime import datetime, timedelta
from multiprocessing.pool import RemoteTraceback

import numpy as np
import pytest

from ipvae import __version__, analysis, data, vae
from ipvae.cli import _parse_sigmas, _write_json, main
from ipvae.data import write_table

DATA_FILES = {
    "synth": ["ground_truth.csv", "contaminated.csv"],
    "train": ["model.ipvae", "loss_curve.csv", "summary.json"],
    "denoise": ["results.csv", "summary.json"],
    "bench": ["comparison.csv", "noise_sweep.csv", "summary.json"],
    "sweep": ["sweep.csv", "model_k1.ipvae", "model_k2.ipvae", "summary.json"],
    "report": [
        "snr_histogram.csv",
        "latent_scatter.csv",
        "density_corpus.csv",
        "density_model.csv",
        "summary.json",
    ],
}


def run(*args):
    return main([str(a) for a in args])


def strict_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)


def assert_rejected_early(capsys, out, message):
    """Exit 3 with ``message`` on stderr, and no output directory."""
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def old_fmt(value) -> str:
    """The per-value CSV formatter the CLI used before ``data.write_table``."""
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline reused by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--n", 400, "--noise", 1.1, "--spike-prob", 0.02,
               "--seed", 5, "--out", root / "synth") == 0
    assert run("train", "--corpus", root / "synth" / "contaminated.csv",
               "--seed", 7, "--out", root / "train") == 0
    return root


def with_constant_decay(pipeline, tmp_path):
    """The pipeline corpus with one decay, in its second noise group, made
    constant; returns the path of the copy."""
    values = data.read_decays(pipeline / "synth" / "contaminated.csv").values
    values[300] = 5.0
    corpus = tmp_path / "constant.csv"
    data.write_decays(data.DecaySet(values), corpus)
    return corpus


def stdout_line(command, out, summary) -> str:
    """The one line a command prints when it succeeds, from its summary."""
    if command == "synth":
        return f"synth: wrote 20 decay pairs to {out}"
    if command == "train":
        return f"train: {summary['steps']} steps, model at {out / 'model.ipvae'}"
    if command == "denoise":
        return f"denoise: 400 decays, {summary['n_outliers']} flagged"
    if command == "bench":
        rmse = summary["table_mean_rmse"]
        return "bench: " + "  ".join(f"{m}={rmse[m]:.3f}" for m in analysis.BENCH_METHODS)
    if command == "sweep":
        return "sweep: " + "  ".join(f"K={k}:{v:.3f}" for k, v in summary["train_rmse"].items())
    return f"report: 400 decays summarized in {out}"


@pytest.mark.parametrize("command", list(DATA_FILES))
def test_config_echo_summary_and_stdout_line(pipeline, tmp_path, capsys, command):
    """Every command ends alike: summary.json (all but synth), the config.json
    echo of its resolved flags, and one line on stdout."""
    corpus = pipeline / "synth" / "contaminated.csv"
    model = pipeline / "train" / "model.ipvae"
    flags = {
        "synth": ["--n", 20],
        "train": ["--corpus", corpus],
        "denoise": ["--model", model, "--input", corpus, "--realizations", 10],
        "bench": ["--model", model, "--n", 100, "--sweep-n", 50, "--realizations", 10],
        "sweep": ["--corpus", corpus, "--ks", "1,2", "--realizations", 10],
        "report": ["--model", model, "--corpus", corpus, "--realizations", 10],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, *flags, "--seed", 9, "--out", out) == 0
    echo = strict_json(out / "config.json")
    assert (echo["command"], echo["version"], echo["args"]["seed"]) == (command, __version__, 9)
    assert datetime.fromisoformat(echo["timestamp_utc"]).utcoffset() == timedelta(0)
    assert echo.get("ae_mode") is (False if command == "train" else None)
    assert (out / "summary.json").exists() is (command != "synth")
    summary = strict_json(out / "summary.json") if command != "synth" else None
    assert capsys.readouterr().out == stdout_line(command, out, summary) + "\n"


def test_window_count_mismatch_rejected(pipeline, tmp_path, capsys):
    """A 19-window survey of a pooled size (20k decays) against the
    20-window model: denoise and report exit 3 before any group runs and
    leave no output file."""
    assert run("synth", "--n", 20_000, "--windows", 19, "--seed", 1,
               "--out", tmp_path / "synth") == 0
    corpus = tmp_path / "synth" / "contaminated.csv"
    for command, flag in (("denoise", "--input"), ("report", "--corpus")):
        out = tmp_path / command
        capsys.readouterr()
        assert run(command, "--model", pipeline / "train" / "model.ipvae", flag, corpus,
                   "--seed", 3, "--out", out) == 3
        assert capsys.readouterr().err == "error: input dim 19 does not match model dim 20\n"
        assert not out.exists() or not any(out.iterdir())


class TestSynth:
    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert run("synth", "--n", 100, "--noise", 1.1, "--seed", 7,
                       "--out", tmp_path / d) == 0
        for name in DATA_FILES["synth"]:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)

    def test_zero_noise_gives_equal_files(self, tmp_path):
        assert run("synth", "--n", 50, "--noise", 0, "--seed", 3,
                   "--out", tmp_path) == 0
        assert filecmp.cmp(tmp_path / "ground_truth.csv",
                           tmp_path / "contaminated.csv", shallow=False)

    def test_missing_seed_demands_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run("synth", "--n", 10, "--out", tmp_path)
        assert exc_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "nan", "noise_sigma must be finite and >= 0, got nan"),
        ("--m0-range", "1:inf", "m0_range must satisfy 0 < lo <= hi < inf, got (1.0, inf)"),
        ("--delay-ms", "nan", "delay_ms must be finite and > 0, got nan"),
        ("--delay-ms", "inf", "delay_ms must be finite and > 0, got inf"),
    ])
    def test_bad_flag_rejected_before_writing(self, tmp_path, capsys, flag, value,
                                              message):
        assert run("synth", "--n", 10, flag, value, "--seed", 1,
                   "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out", message)

    @pytest.mark.parametrize("n, noise, spike_prob", [
        (3 * data._SYNTH_ROWS + 7, 0.8, 0.2),
        # 12 000 decay rows of 24 columns reach the pooled writer
        (12_000, 1.1, 0.01),
        (5, 0.0, 1.0),
    ])
    def test_files_are_the_library_corpus(self, tmp_path, n, noise, spike_prob):
        assert run("synth", "--n", n, "--noise", noise, "--spike-prob", spike_prob,
                   "--seed", 5, "--out", tmp_path / "cli") == 0
        spec = data.SyntheticSpec(n=n, noise_sigma=noise, spike_prob=spike_prob, seed=5)
        for name, values in zip(DATA_FILES["synth"], data.synthesize_corpus(spec)):
            data.write_decays(data.DecaySet(values), tmp_path / name)
            assert filecmp.cmp(tmp_path / "cli" / name, tmp_path / name, shallow=False)


class TestTrain:
    @pytest.mark.parametrize("latent", [1, 2, 3, 4, 5, 6])
    def test_all_latent_widths(self, pipeline, tmp_path, latent):
        assert run("train", "--corpus", pipeline / "synth" / "contaminated.csv",
                   "--latent", latent, "--seed", 3, "--out", tmp_path) == 0

    def test_ae_mode_labeled(self, pipeline, tmp_path):
        assert run("train", "--corpus", pipeline / "synth" / "contaminated.csv",
                   "--kl-weight", 0, "--seed", 3, "--out", tmp_path) == 0
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["ae_mode"] is True

    def test_loss_curve_rows(self, pipeline):
        lines = (pipeline / "train" / "loss_curve.csv").read_text().splitlines()
        assert lines[0] == "step,total,nll,kl"
        assert len(lines) - 1 == 400 // 32

    def test_divergence_exit_code(self, pipeline, tmp_path, capsys):
        code = run("train", "--corpus", pipeline / "synth" / "contaminated.csv",
                   "--lr", 1e6, "--seed", 3, "--out", tmp_path)
        assert code == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field, value", [
        ("--lr", "lr", "nan"),
        ("--lr", "lr", "inf"),
        ("--lr", "lr", 0),
        ("--kl-weight", "kl_weight", "nan"),
        ("--kl-weight", "kl_weight", "inf"),
        ("--kl-weight", "kl_weight", -1),
    ])
    def test_bad_setting_exit_code(self, pipeline, tmp_path, capsys, flag, field, value):
        code = run("train", "--corpus", pipeline / "synth" / "contaminated.csv",
                   flag, value, "--seed", 3, "--out", tmp_path / "out")
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not (tmp_path / "out").exists()

    def test_unreadable_corpus_exit_code(self, tmp_path):
        assert run("train", "--corpus", tmp_path / "missing.csv",
                   "--seed", 3, "--out", tmp_path) == 5

    def test_malformed_corpus_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a decay file\n")
        assert run("train", "--corpus", bad, "--seed", 3,
                   "--out", tmp_path / "out") == 3


class TestDenoise:
    def test_row_count_and_reproducibility(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        inp = pipeline / "synth" / "contaminated.csv"
        for d in ("a", "b"):
            assert run("denoise", "--model", model, "--input", inp,
                       "--realizations", 20, "--seed", 3,
                       "--out", tmp_path / d) == 0
        rows_a = (tmp_path / "a" / "results.csv").read_text().splitlines()
        assert len(rows_a) - 1 == 400
        assert filecmp.cmp(tmp_path / "a" / "results.csv",
                           tmp_path / "b" / "results.csv", shallow=False)

    @pytest.mark.parametrize("widths, message", [
        ((0, 20, 16, 8), "latent width must be >= 1, got 0"),
        ((2, 20, 16, 0), "second hidden width must be >= 1, got 0"),
    ], ids=["latent", "hidden"])
    def test_zero_width_model_rejected(self, pipeline, tmp_path, capsys, widths, message):
        k, d, h1, h2 = widths
        shapes = [(h1, d), (h2, h1), (k, h2), (k, h2), (h2, k), (h1, h2), (d, h1)]
        size = sum(out_dim * (in_dim + 1) for out_dim, in_dim in shapes)
        payload = vae.MODEL_HEADER.pack(1, k, d, 2, h1, h2, 2, h2, h1, 0.0, 1.0)
        payload += bytes(8 * size)
        model = tmp_path / "zero.ipvae"
        model.write_bytes(b"IPVAE" + payload + hashlib.sha256(payload).digest()[:8])
        assert run("denoise", "--model", model,
                   "--input", pipeline / "synth" / "contaminated.csv",
                   "--realizations", 10, "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out", f"{model}: {message}")

    def test_non_finite_parameter_rejected(self, pipeline, tmp_path, capsys):
        model = vae.VaeModel.initialize(rng=5)
        model.params[3] = np.nan
        path = tmp_path / "nan.ipvae"
        vae.save(model, path)
        assert run("denoise", "--model", path,
                   "--input", pipeline / "synth" / "contaminated.csv",
                   "--realizations", 10, "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              f"{path}: parameter 3 (encoder layer 1 weights) is not finite")

    @pytest.mark.parametrize("command", ["denoise", "report", "bench"])
    def test_unusable_scale_rejected_before_output(self, pipeline, tmp_path, capsys,
                                                   command):
        model = vae.VaeModel.initialize(rng=5)
        model.input_scale = 0.0
        path = tmp_path / "flat.ipvae"
        vae.save(model, path)
        corpus = pipeline / "synth" / "contaminated.csv"
        inputs = {"denoise": ("--input", corpus), "report": ("--corpus", corpus),
                  "bench": ()}[command]
        assert run(command, "--model", path, *inputs, "--realizations", 10,
                   "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              f"{path}: input_scale must be finite and > 0, got 0.0")

    def test_group_results_hold_no_text(self, pipeline, tmp_path, monkeypatch):
        """Each group appends its own results.csv rows where it is decoded,
        serial or pooled (12 groups on 3 workers, taking turns): what
        reaches the parent from the pool entry point is the group's RMSE
        and peak S/N, never text, and both runs write the same bytes."""
        corpus = tmp_path / "survey.csv"
        data.write_decays(data.DecaySet(data.synthesize_corpus(
            data.SyntheticSpec(n=3000, seed=6))[1]), corpus)
        map_rows, taken = data._map_rows, []

        def recorded(ranges, done):
            for rows, result in zip(ranges, done):
                taken.append((rows, result))
                yield result

        @contextlib.contextmanager
        def recording(func, shared, ranges, pooled):
            with map_rows(func, shared, ranges, pooled) as done:
                yield recorded(ranges, done) if func is analysis._denoise_rows else done

        monkeypatch.setattr(data, "_map_rows", recording)
        monkeypatch.setattr(analysis, "_POOL_MIN_SAMPLES", 0)
        for cpus in (1, 3):
            monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
            taken.clear()
            assert run("denoise", "--model", pipeline / "train" / "model.ipvae",
                       "--input", corpus, "--realizations", 10, "--seed", 3,
                       "--out", tmp_path / str(cpus)) == 0
            assert [rows for rows, _ in taken] == [
                slice(start, min(start + 256, 3000)) for start in range(0, 3000, 256)]
            for rows, result in taken:
                assert len(result) == 2
                for part in result:
                    assert isinstance(part, np.ndarray) and part.dtype == np.float64
                    assert part.shape == (rows.stop - rows.start,)
        assert filecmp.cmp(tmp_path / "1" / "results.csv", tmp_path / "3" / "results.csv",
                           shallow=False)
        assert multiprocessing.active_children() == []

    def test_threshold_changes_only_outlier_column(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        inp = pipeline / "synth" / "contaminated.csv"
        assert run("denoise", "--model", model, "--input", inp,
                   "--realizations", 20, "--seed", 3,
                   "--out", tmp_path / "t1") == 0
        assert run("denoise", "--model", model, "--input", inp,
                   "--realizations", 20, "--seed", 3, "--threshold", 1e9,
                   "--out", tmp_path / "t2") == 0
        a = (tmp_path / "t1" / "results.csv").read_text().splitlines()
        b = (tmp_path / "t2" / "results.csv").read_text().splitlines()
        assert a[0] == b[0]
        flag_col = a[0].split(",").index("outlier")
        for ra, rb in zip(a[1:], b[1:]):
            fa, fb = ra.split(","), rb.split(",")
            fa[flag_col] = fb[flag_col] = "X"
            assert fa == fb
        assert all(r.split(",")[flag_col] == "0" for r in b[1:])

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_code(self, pipeline, tmp_path, capsys, threshold):
        assert run("denoise", "--model", pipeline / "train" / "model.ipvae",
                   "--input", pipeline / "synth" / "contaminated.csv",
                   "--threshold", threshold, "--seed", 3,
                   "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.startswith("error: threshold must be finite")
        assert not (tmp_path / "out").exists()

    def test_results_formatted_like_write_rows(self, pipeline, tmp_path):
        """results.csv over more than one 4096-row chunk, against the old
        per-value row join."""
        model = pipeline / "train" / "model.ipvae"
        assert run("synth", "--n", 5000, "--seed", 6, "--out", tmp_path / "s") == 0
        inp = tmp_path / "s" / "contaminated.csv"
        assert run("denoise", "--model", model, "--input", inp,
                   "--realizations", 20, "--seed", 3, "--out", tmp_path / "d") == 0
        res = analysis.denoise_all(vae.load(model), data.read_decays(inp).values,
                                   n_realizations=20, rng=3)
        rows = (
            [i, err, snr, flag, *med, *lo, *hi]
            for i, (err, snr, flag, med, lo, hi) in enumerate(zip(
                res.rmse.tolist(), res.peak_snr.tolist(), res.outlier.tolist(),
                res.median.tolist(), res.ci_low.tolist(), res.ci_high.tolist(),
            ))
        )
        lines = (tmp_path / "d" / "results.csv").read_text().splitlines(keepends=True)
        assert len(lines) == 5001
        assert lines[1:] == [",".join(map(old_fmt, row)) + "\n" for row in rows]

    def test_constant_decay_rejected_before_output(self, pipeline, tmp_path, capsys,
                                                   monkeypatch):
        values = data.synthesize_corpus(data.SyntheticSpec(n=3000, seed=6))[1]
        values[1234] = 5.0  # 3000 x 100 samples: a pooled size
        corpus = tmp_path / "survey.csv"
        data.write_decays(data.DecaySet(values), corpus)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        assert run("denoise", "--model", pipeline / "train" / "model.ipvae",
                   "--input", corpus, "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "peak S/N is undefined for a constant input (zero range)")

    def test_failure_mid_stream_leaves_no_results(self, pipeline, tmp_path, monkeypatch):
        """A group fails in a pool worker after the rows of earlier groups
        reached the file: the error reaches the caller, and neither
        results.csv nor its temporary file is left."""
        corpus, out = tmp_path / "survey.csv", tmp_path / "out"
        values = data.synthesize_corpus(data.SyntheticSpec(n=3000, seed=6))[1]
        data.write_decays(data.DecaySet(values), corpus)
        parent, denoise_rows = os.getpid(), analysis._denoise_rows

        def written():
            return sum(p.stat().st_size for p in out.glob("results.csv.*.tmp"))

        def failing(shared, rows):
            if os.getpid() == parent:
                raise AssertionError("group decoded outside the pool")
            if rows.start == 8 * analysis._NOISE_ROWS:
                deadline = time.monotonic() + 60
                while written() < 10**5 and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise RuntimeError(f"group failed after {written()} bytes were written")
            return denoise_rows(shared, rows)

        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(analysis, "_POOL_MIN_SAMPLES", 0)
        monkeypatch.setattr(analysis, "_denoise_rows", failing)
        with pytest.raises(RuntimeError, match="group failed after") as raised:
            run("denoise", "--model", pipeline / "train" / "model.ipvae", "--input", corpus,
                "--realizations", 10, "--seed", 3, "--out", out)
        assert isinstance(raised.value.__cause__, RemoteTraceback)
        assert int(str(raised.value).split()[3]) >= 10**5  # a group's rows or more
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_serial_peak_below_whole_survey_output(self, pipeline, small_corpus, tmp_path,
                                                   monkeypatch):
        """In process and serial, denoising 20k decays peaks below four
        times their values: the input plus the (3, n, d) median and band a
        whole-survey output holds."""
        values = small_corpus[1]
        corpus = tmp_path / "survey.csv"
        data.write_decays(data.DecaySet(values), corpus)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            assert run("denoise", "--model", pipeline / "train" / "model.ipvae",
                       "--input", corpus, "--seed", 3, "--out", tmp_path / "out") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * values.nbytes

    def test_serial_report_peak_below_three_corpora(self, pipeline, small_corpus, tmp_path,
                                                    monkeypatch):
        """In process and serial, a report of 20k decays peaks below three
        times their values: neither density chart holds a corpus-sized
        temporary, the prior sample or a copy for the chart's range."""
        values = small_corpus[1]
        corpus = tmp_path / "survey.csv"
        data.write_decays(data.DecaySet(values), corpus)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            assert run("report", "--model", pipeline / "train" / "model.ipvae",
                       "--corpus", corpus, "--seed", 5, "--out", tmp_path / "out") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes

    def test_threshold_checked_before_reading(self, tmp_path, capsys):
        # RMSE is >= 0, so a negative threshold would flag every decay
        for threshold in ("nan", "-1"):
            assert run("denoise", "--model", tmp_path / "missing.ipvae",
                       "--input", tmp_path / "missing.csv", "--threshold", threshold,
                       "--seed", 3, "--out", tmp_path / "out") == 3
            assert_rejected_early(capsys, tmp_path / "out",
                                  f"threshold must be finite and >= 0, got {float(threshold)}")

    def test_realizations_checked_before_reading(self, tmp_path, capsys):
        assert run("denoise", "--model", tmp_path / "missing.ipvae",
                   "--input", tmp_path / "missing.csv", "--realizations", 1,
                   "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "--realizations must be >= 2, got 1")

    def test_warns_when_most_decays_flagged(self, pipeline, tmp_path, capsys):
        model = pipeline / "train" / "model.ipvae"
        inp = pipeline / "synth" / "contaminated.csv"

        def denoise(threshold, out):
            assert run("denoise", "--model", model, "--input", inp,
                       "--realizations", 20, "--seed", 3, "--threshold", threshold,
                       "--out", tmp_path / out) == 0
            return capsys.readouterr()

        flagged = denoise(1e-9, "all")
        assert flagged.out == "denoise: 400 decays, 400 flagged\n"
        assert flagged.err.count("\n") == 1
        assert flagged.err.startswith("warning: 400 of 400 decays (100%) flagged")
        assert "median per-decay RMSE" in flagged.err
        clean = denoise(1e9, "none")
        assert clean.out == "denoise: 400 decays, 0 flagged\n"
        assert clean.err == ""


class TestBench:
    def test_outputs_and_structure(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        assert run("bench", "--model", model, "--n", 200, "--sweep-n", 100,
                   "--sigmas", "0:1:0.5", "--realizations", 20,
                   "--seed", 3, "--out", tmp_path) == 0
        comp = (tmp_path / "comparison.csv").read_text().splitlines()
        methods = [r.split(",")[0] for r in comp[1:]]
        assert methods == ["none", "ip_vae", "ma", "ema", "butterworth"]
        sweep = (tmp_path / "noise_sweep.csv").read_text().splitlines()
        assert len(sweep) - 1 == 3 * 5  # one row per sigma per method
        summary = strict_json(tmp_path / "summary.json")
        assert summary["sweep_sigmas"] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", 0, "--n must be >= 1, got 0"),
        ("--sweep-n", 0, "--sweep-n must be >= 1, got 0"),
        ("--realizations", 1, "--realizations must be >= 2, got 1"),
        ("--sigma", "nan", "--sigma must be finite"),
        ("--sigma", "-1.1", "--sigma must be finite and >= 0, got -1.1"),
        # argparse reads a separate "-1,0,1" as a flag; None: the flag carries its value
        ("--sigmas=-1,0,1", None,
         "--sigmas must be at least two distinct finite values >= 0 to fit a slope,"
         " got '-1,0,1'"),
        ("--sigmas", "1.1", "--sigmas must be at least two distinct finite values"),
        ("--sigmas", "1,1", "--sigmas must be at least two distinct finite values"),
        ("--sigmas", "1,1,2", "--sigmas must be at least two distinct finite values"),
        ("--sigmas", "0,nan", "--sigmas must be at least two distinct finite values"),
        ("--sigmas", "3:0:1", "bad sigma sweep '3:0:1'"),
        ("--sigmas", "0:inf:1", "bad sigma sweep '0:inf:1'"),
        ("--sigmas", "0:nan:1", "bad sigma sweep '0:nan:1'"),
        ("--sigmas", "nan:1:0.5", "bad sigma sweep 'nan:1:0.5'"),
        ("--sigmas", "0:1:nan", "bad sigma sweep '0:1:nan'"),
        ("--sigmas", "0:1e308:1e-300", "bad sigma sweep '0:1e308:1e-300'"),
        ("--sigmas", "0:1:0.001", "bad sigma sweep '0:1:0.001': 1001 levels, at most 1000"),
        # 10^12 levels: refused before any of them is built
        ("--sigmas", "0:1e6:1e-6",
         "bad sigma sweep '0:1e6:1e-6': 1000000000001 levels, at most 1000"),
        # 7 default levels x 300 000 decays: more than 2 000 000 in the sweep
        ("--sweep-n", 300_000,
         "--sweep-n must be at most 285714 for 7 noise levels, got 300000"),
    ])
    def test_bad_flag_rejected_before_model_load(self, tmp_path, capsys, flag, value,
                                                 message):
        # the model file does not exist: loading it first would exit 5
        value = () if value is None else (value,)
        assert run("bench", "--model", tmp_path / "missing.ipvae", flag, *value,
                   "--seed", 3, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out", message)

    def test_sweep_of_most_levels_accepted(self):
        assert len(_parse_sigmas("0:0.999:0.001")) == 1000

    def test_reproducible(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        for d in ("a", "b"):
            assert run("bench", "--model", model, "--n", 100, "--sweep-n", 50,
                       "--realizations", 10, "--seed", 4,
                       "--out", tmp_path / d) == 0
        for name in DATA_FILES["bench"]:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)


class TestSweep:
    def test_models_persisted_and_deterministic(self, pipeline, tmp_path):
        corpus = pipeline / "synth" / "contaminated.csv"
        for d in ("a", "b"):
            assert run("sweep", "--corpus", corpus, "--ks", "1,2",
                       "--realizations", 10, "--seed", 5,
                       "--out", tmp_path / d) == 0
        for name in DATA_FILES["sweep"]:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)

    @pytest.mark.parametrize("flag, value, message", [
        ("--ks", "0", "latent_dim must be >= 1, got 0"),
        ("--ks", "1,-2", "latent_dim must be >= 1, got -2"),
        ("--ks", "2,2", "--ks must be distinct widths, got 2,2"),
        ("--realizations", 1, "--realizations must be >= 2, got 1"),
    ])
    def test_bad_flag_rejected_before_reading(self, tmp_path, capsys, flag, value,
                                              message):
        # the corpus does not exist: reading it first would exit 5
        assert run("sweep", "--corpus", tmp_path / "missing.csv", flag, value,
                   "--seed", 5, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out", message)

    def test_divergence_exit_code_names_width(self, pipeline, tmp_path, capsys):
        assert run("sweep", "--corpus", pipeline / "synth" / "contaminated.csv",
                   "--ks", "1,2", "--lr", 1e6, "--realizations", 5,
                   "--seed", 5, "--out", tmp_path / "out") == 4
        assert_rejected_early(capsys, tmp_path / "out", "K=1: training diverged at step")

    def test_constant_decay_rejected_before_training(self, pipeline, tmp_path, capsys,
                                                     monkeypatch):
        corpus = with_constant_decay(pipeline, tmp_path)
        trained = []
        monkeypatch.setattr(vae, "train_new", lambda *a, **k: trained.append(a))
        assert run("sweep", "--corpus", corpus, "--ks", "1,2", "--realizations", 5,
                   "--seed", 5, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "peak S/N is undefined for a constant input (zero range)")
        assert trained == []

    def test_default_ks(self, pipeline, tmp_path):
        corpus = pipeline / "synth" / "contaminated.csv"
        assert run("sweep", "--corpus", corpus, "--realizations", 5,
                   "--seed", 6, "--out", tmp_path) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "4", "6"]
        for k in (1, 2, 4, 6):
            assert (tmp_path / f"model_k{k}.ipvae").exists()


class TestReport:
    def test_outputs(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        corpus = pipeline / "synth" / "contaminated.csv"
        assert run("report", "--model", model, "--corpus", corpus,
                   "--realizations", 10, "--seed", 8, "--out", tmp_path) == 0

        hist = (tmp_path / "snr_histogram.csv").read_text().splitlines()
        counts = [int(r.split(",")[2]) for r in hist[1:]]
        assert sum(counts) == 400  # finite bins plus the inf sentinel row
        assert hist[-1].startswith("inf,inf,")

        scatter = (tmp_path / "latent_scatter.csv").read_text().splitlines()
        assert scatter[0] == "id,mu_1,mu_2,avg_chargeability_mv_per_v"
        assert len(scatter) - 1 == 400

        for name in ("density_corpus.csv", "density_model.csv"):
            rows = (tmp_path / name).read_text().splitlines()
            grid = np.array([[float(v) for v in r.split(",")[2:]] for r in rows[1:]])
            assert np.allclose(grid.sum(axis=0), 1.0, atol=1e-9)

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["histogram_total"] == 400
        assert "dlc_difference" in summary

    @pytest.mark.parametrize("flag, value, message", [
        ("--bins", 0, "--bins must be >= 1, got 0"),
        ("--bins", 10_001, "--bins must be at most 10000, got 10001"),
        ("--bin-width", 0, "--bin-width must be finite and > 0, got 0.0"),
        ("--bin-width", "nan", "--bin-width must be finite and > 0, got nan"),
        ("--bin-width", "inf", "--bin-width must be finite and > 0, got inf"),
        ("--realizations", 1, "--realizations must be >= 2, got 1"),
    ])
    def test_bad_flag_rejected_before_model_load(self, tmp_path, capsys, flag, value,
                                                 message):
        assert run("report", "--model", tmp_path / "missing.ipvae",
                   "--corpus", tmp_path / "missing.csv", flag, value,
                   "--seed", 8, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out", message)

    def test_too_fine_bin_width_rejected_before_output(self, pipeline, tmp_path, capsys):
        """1e-12 dB bins would span the survey's S/N values with about 10^13
        bins: the count is refused once the S/N values are known, before any
        bin is made or file written."""
        assert run("report", "--model", pipeline / "train" / "model.ipvae",
                   "--corpus", pipeline / "synth" / "contaminated.csv", "--bin-width", 1e-12,
                   "--realizations", 10, "--seed", 8, "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "bin_width_db 1e-12 spans the S/N values with")

    def test_failed_result_writes_nothing(self, pipeline, tmp_path, capsys):
        two = tmp_path / "two.csv"
        data.write_decays(data.DecaySet(np.linspace(20.0, 1.0, 40).reshape(2, 20)), two)
        assert run("report", "--model", pipeline / "train" / "model.ipvae",
                   "--corpus", two, "--realizations", 10, "--seed", 8,
                   "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "need at least 3 decays for a correlation")

    def test_constant_decay_rejected_before_denoising(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        corpus = with_constant_decay(pipeline, tmp_path)
        denoise_rows, decoded = analysis._denoise_rows, []

        def recorded(shared, rows):
            decoded.append(rows)
            return denoise_rows(shared, rows)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 1)  # every group decoded here
        monkeypatch.setattr(analysis, "_denoise_rows", recorded)
        assert run("report", "--model", pipeline / "train" / "model.ipvae",
                   "--corpus", corpus, "--realizations", 10, "--seed", 8,
                   "--out", tmp_path / "out") == 3
        assert_rejected_early(capsys, tmp_path / "out",
                              "peak S/N is undefined for a constant input (zero range)")
        assert decoded == []

    def test_reproducible(self, pipeline, tmp_path):
        model = pipeline / "train" / "model.ipvae"
        corpus = pipeline / "synth" / "contaminated.csv"
        for d in ("a", "b"):
            assert run("report", "--model", model, "--corpus", corpus,
                       "--realizations", 10, "--seed", 8,
                       "--out", tmp_path / d) == 0
        for name in DATA_FILES["report"]:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)


class TestJsonOutputs:
    def test_non_finite_value_refused_and_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_json(tmp_path / "summary.json", {"slope": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_train_summary_is_strict_json(self, pipeline):
        summary = strict_json(pipeline / "train" / "summary.json")
        assert summary["steps"] == 400 // 32


class TestAtomicOutputs:
    class Unprintable:
        def __str__(self):
            raise RuntimeError("unprintable value")

    def failing_column(self):
        """An object column whose value in the second 4096-row chunk fails."""
        column = np.arange(5000).astype(object)
        column[4500] = self.Unprintable()
        return column

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="unprintable value"):
            write_table(tmp_path / "out.csv", "a,b", self.failing_column(), np.ones(5000))
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        write_table(target, "a,b", np.array([0]), np.array([1.0]))
        with pytest.raises(RuntimeError, match="unprintable value"):
            write_table(target, "a,b", self.failing_column(), np.ones(5000))
        assert target.read_text() == "a,b\n0,1.0\n"
        assert list(tmp_path.iterdir()) == [target]
