import math

import numpy as np
import pytest

from ipvae.analysis import (
    denoise_all,
    density_chart,
    dlc_difference,
    fitted_slope,
    latent_chargeability_correlation,
    latent_sweep,
    peak_snr,
    rmse,
    survey_snr_histogram,
)
from ipvae.vae import TrainConfig, sample_matrix


class TestRmse:
    def test_identical_inputs(self):
        x = np.linspace(1, 20, 20)
        assert rmse(x, x) == 0.0

    def test_constant_offset(self):
        x = np.linspace(1, 20, 20)
        assert rmse(x, x - 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_two_point_example(self):
        assert rmse(np.array([3.0, 0.0]), np.array([0.0, 4.0])) == pytest.approx(
            math.sqrt(12.5), rel=1e-12
        )

    def test_symmetry_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(0, 3, 20), rng.normal(0, 3, 20)
        assert rmse(x, y) == pytest.approx(rmse(y, x), rel=1e-12)
        assert rmse(x + 5.0, y + 5.0) == pytest.approx(rmse(x, y), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


class TestPeakSnr:
    def test_twenty_db(self):
        x = np.linspace(0.0, 10.0, 20)  # range exactly 10
        x_prime = x.copy()
        x_prime[0] += 1.0  # misfit norm exactly 1
        assert peak_snr(x, x_prime) == pytest.approx(20.0, rel=1e-12)

    def test_zero_db_at_unit_ratio(self):
        x = np.linspace(0.0, 10.0, 20)
        x_prime = x.copy()
        x_prime[0] += 10.0
        assert peak_snr(x, x_prime) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = np.linspace(1, 30, 20)
        x_prime = x + rng.normal(0, 1, 20)
        assert peak_snr(3 * x, 3 * x_prime) == pytest.approx(
            peak_snr(x, x_prime), rel=1e-12
        )

    def test_constant_input_raises(self):
        with pytest.raises(ValueError, match="constant"):
            peak_snr(np.full(20, 4.0), np.zeros(20))

    def test_perfect_reconstruction_is_inf(self):
        x = np.linspace(0, 5, 20)
        assert math.isinf(peak_snr(x, x.copy()))

    def test_monotone_decrease_with_noise(self):
        rng = np.random.default_rng(3)
        x = np.linspace(1, 30, 20)
        means = []
        for sigma in (0.5, 1.0, 2.0, 3.0):
            vals = [
                peak_snr(x, x + rng.normal(0, sigma, 20)) for _ in range(2000)
            ]
            means.append(np.mean(vals))
        assert all(a > b for a, b in zip(means, means[1:]))


class TestDenoise:
    def test_reproducible(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        a = denoise_all(model, decays[:1], n_realizations=50, rng=4)
        b = denoise_all(model, decays[:1], n_realizations=50, rng=4)
        assert np.array_equal(a.median, b.median)
        assert np.array_equal(a.rmse, b.rmse)

    def test_quantile_ordering(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        res = denoise_all(model, decays[:20], n_realizations=100, rng=5)
        assert res.median.shape == (20, decays.shape[1])
        assert np.all(res.ci_low <= res.median + 1e-12)
        assert np.all(res.median <= res.ci_high + 1e-12)

    def test_clean_in_distribution_easier_than_noisy(self, small_model):
        model, _ = small_model
        clean = sample_matrix(model, 300, 1.0, rng=6)
        noisy = clean + np.random.default_rng(7).normal(0, 1.1, clean.shape)
        res_clean = denoise_all(model, clean, 50, rng=8)
        res_noisy = denoise_all(model, noisy, 50, rng=8)
        assert np.mean(res_clean.rmse) <= np.mean(res_noisy.rmse)

    def test_realization_floor(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        with pytest.raises(ValueError, match="realizations"):
            denoise_all(model, decays[:1], n_realizations=1, rng=9)

    def test_threshold_controls_flag(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        res = denoise_all(model, decays[:50], n_realizations=50, rng=10)
        strict = denoise_all(model, decays[:50], n_realizations=50, threshold=1e-9, rng=10)
        assert np.all(strict.outlier)
        assert np.array_equal(res.outlier, res.rmse > 1.0)


class TestSurveyHistogram:
    def test_counts_sum_to_n(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        hist = survey_snr_histogram(decays[:500], model, n_realizations=20, rng=11)
        assert hist.total == 500

    def test_low_noise_survey_has_higher_mode(self, small_model):
        model, _ = small_model
        modes = {}
        for sigma in (0.3, 3.0):
            clean = sample_matrix(model, 800, 1.0, rng=12)
            noisy = clean + np.random.default_rng(13).normal(0, sigma, clean.shape)
            hist = survey_snr_histogram(noisy, model, n_realizations=50, rng=14)
            modes[sigma] = hist.bin_edges[int(np.argmax(hist.counts))]
        assert modes[0.3] > modes[3.0]

    def test_identical_clean_decays_concentrate(self, small_model):
        # copies of one on-manifold decay reconstruct near-identically, so
        # the whole survey lands in a narrow band of high-S/N bins
        model, _ = small_model
        one = sample_matrix(model, 1, 1.0, rng=15)
        survey = np.tile(one, (100, 1))
        hist = survey_snr_histogram(survey, model, n_realizations=50, rng=16)
        assert hist.total == 100
        occupied = np.flatnonzero(hist.counts)
        # a mixed survey spans tens of dB; identical inputs stay in a sliver
        assert occupied[-1] - occupied[0] <= 10

    def test_empty_rejected(self, small_model):
        model, _ = small_model
        with pytest.raises(ValueError):
            survey_snr_histogram(np.empty((0, 20)), model)


class TestDensityChart:
    def test_columns_sum_to_one(self, small_corpus):
        _, noisy = small_corpus
        chart = density_chart(noisy[:5000])
        assert np.allclose(chart.grid.sum(axis=0), 1.0, atol=1e-12)

    def test_self_difference_zero_and_symmetry(self, small_corpus):
        _, noisy = small_corpus
        a = density_chart(noisy[:3000], amplitude_range=(-5, 50))
        b = density_chart(noisy[3000:6000], amplitude_range=(-5, 50))
        assert dlc_difference(a, a) == 0.0
        assert dlc_difference(a, b) == pytest.approx(dlc_difference(b, a), rel=1e-12)

    def test_disjoint_populations_give_two_over_bins(self):
        lo_pop = np.full((100, 20), 2.0)
        hi_pop = np.full((100, 20), 8.0)
        a = density_chart(lo_pop, bins=50, amplitude_range=(0.0, 10.0))
        b = density_chart(hi_pop, bins=50, amplitude_range=(0.0, 10.0))
        assert dlc_difference(a, b) == pytest.approx(2.0 / 50.0, rel=1e-12)

    def test_range_mismatch_rejected(self):
        a = density_chart(np.ones((10, 20)), amplitude_range=(0, 10))
        b = density_chart(np.ones((10, 20)), amplitude_range=(0, 12))
        with pytest.raises(ValueError, match="range"):
            dlc_difference(a, b)

    def test_out_of_range_values_clipped_into_edge_bins(self):
        values = np.concatenate([np.full((5, 20), -100.0), np.full((5, 20), 100.0)])
        chart = density_chart(values, bins=10, amplitude_range=(0.0, 1.0))
        assert np.allclose(chart.grid.sum(axis=0), 1.0)
        assert np.allclose(chart.grid[0], 0.5)
        assert np.allclose(chart.grid[-1], 0.5)


class TestLatentCorrelation:
    def test_order_invariance(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        subset = decays[:2000]
        r1 = latent_chargeability_correlation(model, subset)
        r2 = latent_chargeability_correlation(model, subset[::-1])
        assert np.allclose(r1, r2, atol=1e-12)

    def test_needs_three_decays(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        with pytest.raises(ValueError):
            latent_chargeability_correlation(model, decays[:2])

    def test_degenerate_population_rejected(self, small_model):
        model, _ = small_model
        same = np.tile(np.linspace(20, 2, 20), (10, 1))
        with pytest.raises(ValueError, match="variance"):
            latent_chargeability_correlation(model, same)

    def test_untrained_model_negative_control(self, small_corpus):
        # no bound asserted for a freshly initialized model; recorded only
        from ipvae.vae import VaeModel

        _, decays = small_corpus
        model = VaeModel.initialize(rng=77)
        r = latent_chargeability_correlation(model, decays[:1000])
        assert np.all(np.isfinite(r))


class TestLatentSweep:
    def test_smoke_all_ks_finite(self, small_corpus):
        _, noisy = small_corpus
        rows = latent_sweep(
            noisy[:4000], ks=(1, 2), config=TrainConfig(seed=3), n_realizations=10
        )
        assert [r.latent_dim for r in rows] == [1, 2]
        for r in rows:
            for value in (r.nll, r.kl, r.train_snr_db, r.train_rmse, r.dlc_diff):
                assert np.isfinite(value)

    def test_error_annotated_with_k(self, small_corpus):
        _, noisy = small_corpus
        with pytest.raises(RuntimeError, match="K=1"):
            latent_sweep(
                noisy[:2000], ks=(1,), config=TrainConfig(seed=3, lr=1e6),
                n_realizations=5,
            )


class TestFittedSlope:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert fitted_slope(x, 2.5 * x + 1.0) == pytest.approx(2.5, rel=1e-12)
