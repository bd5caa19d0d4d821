import filecmp
import json
import os

import numpy as np
import pytest

from ipvae import analysis, data, vae
from ipvae.cli import _fmt, _result_lines, _write_rows, main

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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline reused by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--n", 400, "--noise", 1.1, "--spike-prob", 0.02,
               "--seed", 5, "--out", root / "synth") == 0
    assert run("train", "--corpus", root / "synth" / "contaminated.csv",
               "--seed", 7, "--out", root / "train") == 0
    return root


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

    def test_config_echo_written(self, tmp_path):
        assert run("synth", "--n", 20, "--seed", 9, "--out", tmp_path) == 0
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["command"] == "synth"
        assert echo["args"]["seed"] == 9
        assert "timestamp_utc" in echo


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
        model = pipeline / "train" / "model.ipvae"
        inp = pipeline / "synth" / "contaminated.csv"
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
        _write_rows(tmp_path / "rows.csv", lines[0].rstrip("\n").split(","), rows)
        assert (tmp_path / "rows.csv").read_text().splitlines(keepends=True) == lines
        # chunk boundaries do not show in the output
        assert list(_result_lines(res, chunk=7)) == lines[1:]

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


class TestAtomicOutputs:
    @staticmethod
    def failing_rows():
        yield [1, 2.5]
        raise RuntimeError("row source failed")

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="row source failed"):
            _write_rows(tmp_path / "out.csv", ["a", "b"], self.failing_rows())
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.csv"
        _write_rows(target, ["a", "b"], [[0, 1.0]])
        with pytest.raises(RuntimeError, match="row source failed"):
            _write_rows(target, ["a", "b"], self.failing_rows())
        assert target.read_text() == "a,b\n0,1.0\n"
        assert list(tmp_path.iterdir()) == [target]


class TestFmt:
    def test_each_type_keeps_its_form(self):
        assert _fmt(0.1) == "0.1"
        assert _fmt(float("inf")) == "inf"
        assert _fmt(np.float64(0.1)) == "0.1"
        assert _fmt(np.float32(0.5)) == "0.5"
        assert _fmt(True) == "1" and _fmt(np.bool_(False)) == "0"
        assert _fmt(3) == "3" and _fmt(np.int64(-2)) == "-2"
        assert _fmt("ip_vae") == "ip_vae" and _fmt(None) == ""
