"""Acceptance suite: one test per criterion, each printing a PASS line.

The canonical pipeline behind most criteria: the default synthetic spec
(noise 1.1 mV/V, 1% spikes, seed 42) at 2e5 decays, trained with the
default config (lr 1e-3, batch 32, one epoch, K=2, seed 7) — fixtures in
conftest.py. The stationarity criterion runs its own 1e5-decay training at
identical defaults. Denoising benchmarks use model-generated ground truth:
prior samples of the trained model, contaminated with Gaussian noise.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from ipvae.analysis import (
    denoise_matrix,
    denoising_benchmark,
    density_chart,
    density_range,
    dlc_difference,
    fitted_slope,
    latent_sweep,
    rmse_rows,
)
from ipvae.cli import main as cli_main
from ipvae.data import SyntheticSpec, synthesize_corpus
from ipvae.filters import (
    butterworth_lowpass,
    exponential_moving_average,
    moving_average,
)
from ipvae.vae import (
    TrainConfig,
    VaeModel,
    decode,
    encode,
    kl_term,
    loss_backward,
    loss_given_eps,
    sample_matrix,
    smooth_curve,
    train_new,
)
from conftest import CANONICAL_SPEC, CANONICAL_TRAIN_SEED

BENCH_SIGMA = 1.1


def _gradcheck_instance(model, x, eps, beta, h=1e-5):
    report, cache = loss_given_eps(model, x, eps, beta)
    grads = loss_backward(model, cache)
    floor = 1e-9 * max(1.0, abs(report.total))  # central-difference noise
    worst = 0.0
    for p, g in zip(model.parameters(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp, _ = loss_given_eps(model, x, eps, beta)
            p[idx] = orig - h
            lm, _ = loss_given_eps(model, x, eps, beta)
            p[idx] = orig
            fd = (lp.total - lm.total) / (2 * h)
            if abs(g[idx] - fd) > floor:
                worst = max(
                    worst, abs(g[idx] - fd) / max(1e-8, abs(g[idx]) + abs(fd))
                )
    return worst


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst = 0.0
    count = 0
    for latent in (1, 2, 4, 6):
        for trial in range(5):
            if trial == 0:
                model = VaeModel.initialize(20, latent, rng=rng)
                d = 20
            else:
                d = int(rng.integers(5, 12))
                hidden = (int(rng.integers(4, 8)), int(rng.integers(3, 5)))
                model = VaeModel.initialize(d, latent, hidden, rng=rng)
            # probe in the model's operating regime: inputs whose
            # standardized values are O(1), like training data
            model.input_offset = float(rng.normal(0, 2))
            model.input_scale = float(rng.uniform(0.5, 3))
            x = rng.normal(0, 1.5, (2, d)) * model.input_scale + model.input_offset
            eps = rng.standard_normal((2, latent))
            beta = float(rng.uniform(0.2, 2.0))
            worst = max(worst, _gradcheck_instance(model, x, eps, beta))
            count += 1
    elapsed = time.monotonic() - start
    assert count == 20
    assert worst <= 1e-4
    assert elapsed < 60.0
    print(f"ACCEPTANCE 01 PASS: gradients on {count} instances, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_kl():
    assert kl_term(np.zeros(2), np.zeros(2))[0] == pytest.approx(0.0, abs=1e-12)
    assert kl_term(np.array([1.0, 1.0]), np.zeros(2))[0] == pytest.approx(
        1.0, abs=1e-12
    )
    rng = np.random.default_rng(101)
    mu = rng.uniform(-5, 5, (10_000, 4))
    logvar = rng.uniform(-6, 4, (10_000, 4))
    kls = kl_term(mu, logvar)
    assert np.all(kls >= 0.0)
    print(f"ACCEPTANCE 02 PASS: KL(0,1)=0, KL((1,1),(1,1))=1, "
          f"min over 1e4 draws {kls.min():.3e} >= 0")


def test_criterion_03_training_stationarity():
    start = time.monotonic()
    spec = SyntheticSpec(n=100_000, **CANONICAL_SPEC)
    _, values = synthesize_corpus(spec)
    _, reports_1 = train_new(values, TrainConfig(seed=CANONICAL_TRAIN_SEED))
    sm1 = smooth_curve([r.total for r in reports_1], 1000)
    ratio = float(sm1[-1] / sm1.min())
    assert ratio <= 1.1
    _, reports_2 = train_new(values, TrainConfig(seed=CANONICAL_TRAIN_SEED, epochs=2))
    sm2 = smooth_curve([r.total for r in reports_2], 1000)
    improvement = float((sm1[-1] - sm2[-1]) / sm1[-1])
    assert improvement < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 03 PASS: end/min smoothed loss {ratio:.4f} <= 1.1, "
          f"second epoch improves {improvement * 100:.2f}% < 5%, {elapsed:.0f}s")


def test_criterion_04_table1_ordering(canonical_model):
    model, _ = canonical_model
    table = denoising_benchmark(model, 10_000, (BENCH_SIGMA,), seed=11)[BENCH_SIGMA]
    means = {m: table[m][0] for m in table}
    assert means["ip_vae"] < means["butterworth"]
    assert means["ip_vae"] < means["ma"]
    assert means["ip_vae"] < means["ema"]
    for m in ("ip_vae", "ma", "ema", "butterworth"):
        assert means[m] < means["none"]
    print(
        "ACCEPTANCE 04 PASS: mean RMSE at sigma=1.1 (mV/V): "
        + "  ".join(f"{m}={means[m]:.3f}" for m in
                    ("ip_vae", "butterworth", "ma", "ema", "none"))
    )


def test_criterion_05_noise_sensitivity_trend(canonical_model):
    model, _ = canonical_model
    sigmas = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    bench = denoising_benchmark(model, 2000, sigmas, seed=13)
    slopes = {}
    for method in ("ip_vae", "ma", "ema", "butterworth", "none"):
        means = np.array([bench[s][method][0] for s in sigmas])
        assert np.all(np.diff(means) >= 0.0), f"{method} not monotone: {means}"
        slopes[method] = fitted_slope(np.asarray(sigmas), means)
    assert slopes["ip_vae"] < slopes["ma"]
    assert slopes["ip_vae"] < slopes["ema"]
    assert slopes["ip_vae"] < slopes["butterworth"]
    print(
        "ACCEPTANCE 05 PASS: monotone RMSE curves; slopes "
        + "  ".join(f"{m}={slopes[m]:.3f}" for m in
                    ("ip_vae", "ma", "ema", "butterworth"))
    )


def test_criterion_06_generative_fidelity(canonical_model, canonical_corpus):
    model, _ = canonical_model
    _, noisy = canonical_corpus
    samples = sample_matrix(model, 100_000, sigma_scale=1.0, rng=3)
    amplitude_range = density_range(noisy)
    dlc = dlc_difference(
        density_chart(samples, amplitude_range=amplitude_range),
        density_chart(noisy, amplitude_range=amplitude_range),
    )
    assert dlc <= 0.01

    flared = sample_matrix(model, 100_000, sigma_scale=1.5, rng=3)
    span_1 = samples.max(axis=0) - samples.min(axis=0)
    span_15 = flared.max(axis=0) - flared.min(axis=0)
    assert np.all(span_15 > span_1)

    origin = decode(model, np.zeros(model.latent_dim))
    collapsed = sample_matrix(model, 200, sigma_scale=1e-5, rng=4)
    max_dev = float(np.max(np.abs(collapsed - origin)))
    assert max_dev < 1e-3
    print(f"ACCEPTANCE 06 PASS: dlc {dlc:.4f} <= 0.01, sigma=1.5 widens all "
          f"windows, sigma->0 collapse dev {max_dev:.1e} < 1e-3 mV/V")


def test_criterion_07_latent_interpretation(canonical_model, canonical_corpus):
    model, _ = canonical_model
    _, noisy = canonical_corpus
    mu, _ = encode(model, noisy[:20_000])
    m_bar = noisy[:20_000].mean(axis=1)
    r = [abs(float(np.corrcoef(mu[:, k], m_bar)[0, 1]))
         for k in range(model.latent_dim)]
    assert max(r) >= 0.9
    print(f"ACCEPTANCE 07 PASS: best latent-chargeability |r| {max(r):.4f} >= 0.9")


def test_criterion_08_latent_sweep_flatness(canonical_corpus):
    _, noisy = canonical_corpus
    rows = latent_sweep(
        noisy[:30_000],
        ks=(1, 2, 4, 6),
        config=TrainConfig(seed=CANONICAL_TRAIN_SEED),
        n_realizations=50,
    )
    rmses = [r.train_rmse for r in rows]
    spread = (max(rmses) - min(rmses)) / min(rmses)
    assert spread <= 0.25
    dlcs = [r.dlc_diff for r in rows]
    assert dlcs[0] <= 2.0 * min(dlcs)
    print(
        "ACCEPTANCE 08 PASS: train RMSE "
        + " ".join(f"K{r.latent_dim}={r.train_rmse:.3f}" for r in rows)
        + f" spread {spread * 100:.1f}% <= 25%; K=1 dlc {dlcs[0]:.4f}"
        f" within 2x of best {min(dlcs):.4f}"
    )


def test_criterion_09_filter_unit_suite():
    rng = np.random.default_rng(102)
    x = rng.normal(5, 3, 20)
    assert np.array_equal(moving_average(x, 1), x)
    assert np.array_equal(exponential_moving_average(x, 1.0), x)
    assert np.array_equal(exponential_moving_average(x, 0.0), np.full(20, x[0]))

    # unit DC gain and half-power point of the Butterworth realization
    const = np.full(64, 2.75)
    assert np.allclose(butterworth_lowpass(const, 0.37), const, atol=1e-12)
    n = 8192
    t = np.arange(n)
    for cutoff in (0.1, 0.45):
        tone = np.sin(np.pi * cutoff * t)
        out = butterworth_lowpass(tone, cutoff)[n // 2:]
        basis = np.stack(
            [np.sin(np.pi * cutoff * t[n // 2:]), np.cos(np.pi * cutoff * t[n // 2:])],
            axis=1,
        )
        coef, *_ = np.linalg.lstsq(basis, out, rcond=None)
        gain = float(np.hypot(*coef))
        assert abs(gain - 1.0 / math.sqrt(2.0)) < 1e-6

    for apply in (
        lambda v: moving_average(v, 5),
        lambda v: exponential_moving_average(v, 0.4),
        lambda v: butterworth_lowpass(v, 0.3),
    ):
        assert apply(x).shape == x.shape
        c = np.full(20, -1.5)
        assert np.allclose(apply(c), c, atol=1e-12)
    print("ACCEPTANCE 09 PASS: MA/EMA edge cases, Butterworth unit DC gain and "
          "1/sqrt(2) cutoff gain within 1e-6, length and constants preserved")


def test_criterion_10_outlier_flagging(canonical_model):
    model, _ = canonical_model
    rng = np.random.default_rng(123)
    clean = sample_matrix(model, 1000, sigma_scale=1.0, rng=rng)
    in_dist = clean + rng.normal(0.0, 0.3, clean.shape)

    med, _, _ = denoise_matrix(model, in_dist, n_realizations=100, rng=31)
    false_positive = float(np.mean(rmse_rows(in_dist, med) > 1.0))
    assert false_positive <= 0.05

    spiked = in_dist.copy()
    cols = rng.integers(0, spiked.shape[1], spiked.shape[0])
    magnitudes = rng.uniform(8 * BENCH_SIGMA, 10 * BENCH_SIGMA, spiked.shape[0])
    signs = rng.choice((-1.0, 1.0), spiked.shape[0])
    spiked[np.arange(spiked.shape[0]), cols] += signs * magnitudes
    med2, _, _ = denoise_matrix(model, spiked, n_realizations=100, rng=32)
    detected = float(np.mean(rmse_rows(spiked, med2) > 1.0))
    assert detected >= 0.95
    print(f"ACCEPTANCE 10 PASS: spike detection {detected * 100:.1f}% >= 95%, "
          f"false positives {false_positive * 100:.1f}% <= 5%")


def test_criterion_11_cli_reproducibility(tmp_path):
    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    outputs = {
        "synth": ["ground_truth.csv", "contaminated.csv"],
        "train": ["model.ipvae", "loss_curve.csv", "summary.json"],
        "denoise": ["results.csv", "summary.json"],
        "bench": ["comparison.csv", "noise_sweep.csv", "summary.json"],
        "sweep": ["sweep.csv", "model_k1.ipvae", "model_k2.ipvae", "summary.json"],
        "report": ["snr_histogram.csv", "latent_scatter.csv",
                   "density_corpus.csv", "density_model.csv", "summary.json"],
    }
    for run_dir in ("a", "b"):
        base = tmp_path / run_dir
        run("synth", "--n", 300, "--noise", 1.1, "--spike-prob", 0.02,
            "--seed", 5, "--out", base / "synth")
        run("train", "--corpus", base / "synth" / "contaminated.csv",
            "--seed", 7, "--out", base / "train")
        run("denoise", "--model", base / "train" / "model.ipvae",
            "--input", base / "synth" / "contaminated.csv",
            "--realizations", 20, "--seed", 3, "--out", base / "denoise")
        run("bench", "--model", base / "train" / "model.ipvae",
            "--n", 100, "--sweep-n", 50, "--sigmas", "0:1:0.5",
            "--realizations", 10, "--seed", 9, "--out", base / "bench")
        run("sweep", "--corpus", base / "synth" / "contaminated.csv",
            "--ks", "1,2", "--realizations", 10, "--seed", 11,
            "--out", base / "sweep")
        run("report", "--model", base / "train" / "model.ipvae",
            "--corpus", base / "synth" / "contaminated.csv",
            "--realizations", 10, "--seed", 13, "--out", base / "report")
    checked = 0
    for command, files in outputs.items():
        for name in files:
            a = tmp_path / "a" / command / name
            b = tmp_path / "b" / command / name
            assert filecmp.cmp(a, b, shallow=False), f"{command}/{name} differs"
            checked += 1
    print(f"ACCEPTANCE 11 PASS: {checked} data outputs byte-identical across "
          "seeded reruns of all six commands")
