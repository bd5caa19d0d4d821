import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from ipvae import analysis, data
from ipvae import vae as vae_mod
from ipvae.analysis import (
    denoise_all,
    denoise_matrix,
    density_chart,
    dlc_difference,
    fitted_slope,
    latent_chargeability_correlation,
    latent_sweep,
    loss_at_convergence,
    peak_snr,
    rmse,
    sorted_quantiles,
    survey_snr_histogram,
)
from ipvae.vae import TrainConfig, TrainingDivergedError, sample_matrix


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


class TestRowMetrics:
    def test_row_values_equal_per_row_scalar_calls(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 3, (50, 20))
        x_prime = x + rng.normal(0, 1, (50, 20))
        x_prime[7] = x[7]  # exact match: +inf S/N, zero RMSE
        for metric in (rmse, peak_snr):
            rows = metric(x, x_prime)
            assert rows.shape == (50,)
            assert np.array_equal(rows, [metric(a, b) for a, b in zip(x, x_prime)])
        assert rmse(x, x_prime)[7] == 0.0 and math.isinf(peak_snr(x, x_prime)[7])

    def test_row_checks(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse(np.ones((3, 20)), np.ones((3, 19)))
        with pytest.raises(ValueError, match="mismatch"):
            peak_snr(np.ones((3, 20)), np.ones((2, 20)))
        x = np.linspace(0, 5, 60).reshape(3, 20)
        x[1] = 4.0
        with pytest.raises(ValueError, match="constant"):
            peak_snr(x, np.zeros_like(x))


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


def unblocked_denoise_matrix(model, values, n_realizations, rng):
    """The pre-blocking denoise_matrix: R separate decodes of all n rows,
    all R·n·d reconstructions held, then np.quantile over them."""
    rng = np.random.default_rng(rng)
    mu, sigma = vae_mod.encode(model, values)
    recs = np.empty((n_realizations, values.shape[0], values.shape[1]))
    for r in range(n_realizations):
        z = mu + rng.standard_normal(mu.shape) * sigma
        recs[r] = vae_mod.decode(model, z)
    lo, med, hi = np.quantile(recs, (0.025, 0.5, 0.975), axis=0)
    return med, lo, hi


class TestBlockedDenoise:
    @pytest.mark.parametrize("realizations", [2, 3, 100])
    @pytest.mark.parametrize("rows", ["1", "b-1", "b", "b+1", "1000"])
    def test_matches_unblocked_quantiles(self, small_model, small_corpus,
                                         realizations, rows):
        model, _ = small_model
        _, decays = small_corpus
        block = analysis._block_rows(model, realizations)
        n = {"1": 1, "b-1": block - 1, "b": block, "b+1": block + 1, "1000": 1000}[rows]
        old_rng, new_rng = np.random.default_rng(17), np.random.default_rng(17)
        expected = unblocked_denoise_matrix(model, decays[:n], realizations, old_rng)
        got = denoise_matrix(model, decays[:n], realizations, new_rng)
        # the shared generator has consumed exactly the same draws
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
        for e, g in zip(expected, got):
            assert g.shape == e.shape
            if n == 1:
                # numpy sends a one-row matmul to gemv, whose sums may round
                # differently from the gemm used for every batched decode
                np.testing.assert_allclose(g, e, rtol=1e-13, atol=1e-13)
            else:
                assert g.tobytes() == e.tobytes()


def force_serial(m):
    m.setattr(data, "_usable_cpus", lambda: 1)


def force_pool(m, block_ranges):
    """Decode in a pool of three workers (more than some hosts have cores)
    from one block on, and fail if a call of two or more blocks is decoded
    in the calling process. With ``block_ranges`` every pool task is one
    block; otherwise the tasks keep their normal size and only calls at
    or above the normal threshold are pooled."""
    parent, denoise_rows = os.getpid(), analysis._denoise_rows
    threshold = 0 if block_ranges else analysis._POOL_MIN_SAMPLES

    def in_worker(shared, rows):
        _, mu, _, eps, block, _ = shared
        if os.getpid() == parent and len(mu) > block and eps.shape[0] * len(mu) >= threshold:
            raise AssertionError("blocks decoded outside the pool")
        return denoise_rows(shared, rows)

    m.setattr(data, "_usable_cpus", lambda: 3)
    m.setattr(analysis, "_POOL_MIN_SAMPLES", threshold)
    m.setattr(analysis, "_denoise_rows", in_worker)


class TestPooledDenoise:
    """Blocks decoded by the process pool give the serial bits and leave the
    generator in the same state."""

    @pytest.mark.parametrize("block_ranges", [True, False], ids=["block-tasks", "sized-tasks"])
    @pytest.mark.parametrize("realizations", [2, 3, 100])
    @pytest.mark.parametrize("rows", ["1", "b-1", "b", "b+1", "1000", "20001"])
    def test_pooled_equals_serial(self, monkeypatch, small_model, small_corpus,
                                  realizations, rows, block_ranges):
        model, _ = small_model
        _, decays = small_corpus
        block = analysis._block_rows(model, realizations)
        n = {"1": 1, "b-1": block - 1, "b": block, "b+1": block + 1,
             "1000": 1000, "20001": 20_001}[rows]
        values = np.concatenate([decays, decays[:1]])[:n]
        results, states = [], []
        for force in (force_serial, lambda m: force_pool(m, block_ranges)):
            rng = np.random.default_rng(29)
            with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                force(m)
                results.append(denoise_matrix(model, values, realizations, rng))
            states.append(rng.bit_generator.state)
            # Python 3.12 warns when it forks a process that runs threads
            assert [w for w in caught if "fork" in str(w.message)] == []
        serial, pooled = results
        assert states[1] == states[0]
        for s, p in zip(serial, pooled):
            assert s.shape == (n, decays.shape[1])
            assert p.tobytes() == s.tobytes()
        assert multiprocessing.active_children() == []

    def test_block_rows_from_model(self, small_model):
        model, _ = small_model
        # widest decoder layer 16 -> 20: 2**18 // (100 * 320) rows at R=100
        assert analysis._block_rows(model, 100) == 8
        assert analysis._block_rows(model, 2) == 409
        assert analysis._block_rows(model, 10**6) == 1

    def test_worker_error_reaches_caller(self, monkeypatch, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        parent = os.getpid()

        def failing(shared, rows):
            if os.getpid() != parent:
                raise RuntimeError(f"decode failed at row {rows.start}")
            return analysis._denoise_rows(shared, rows)

        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(analysis, "_POOL_MIN_SAMPLES", 0)
        monkeypatch.setattr(analysis, "_denoise_rows", failing)
        with pytest.raises(RuntimeError, match=r"decode failed at row \d+"):
            denoise_matrix(model, decays[:100], 100, rng=3)
        assert multiprocessing.active_children() == []


class TestSortedQuantiles:
    @pytest.mark.parametrize("realizations", [2, 3, 7, 100, 101])
    def test_bit_equal_to_np_quantile_with_ties(self, realizations):
        rng = np.random.default_rng(realizations)
        # few distinct values, so most order statistics are tied
        x = rng.integers(-3, 4, size=(40, realizations)).astype(np.float64) * 0.1
        x[0] = rng.standard_normal(realizations)
        x[1, realizations // 2] = np.nan
        qs = (0.0, 0.025, 0.25, 0.5, 0.975, 0.999)
        got = sorted_quantiles(np.sort(x, axis=-1), qs)
        for q, g in zip(qs, got):
            assert g.tobytes() == np.quantile(x, q, axis=-1).tobytes(), q
        assert np.isnan(got[3][1])


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
        r1 = latent_chargeability_correlation(vae_mod.encode(model, subset)[0], subset)
        r2 = latent_chargeability_correlation(
            vae_mod.encode(model, subset[::-1])[0], subset[::-1]
        )
        assert np.allclose(r1, r2, atol=1e-12)

    def test_needs_three_decays(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        with pytest.raises(ValueError, match="at least 3"):
            latent_chargeability_correlation(vae_mod.encode(model, decays[:2])[0], decays[:2])

    def test_latent_rows_must_match_decays(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        mu, _ = vae_mod.encode(model, decays[:10])
        with pytest.raises(ValueError, match="latent means of shape"):
            latent_chargeability_correlation(mu, decays[:11])

    def test_degenerate_population_rejected(self, small_model):
        model, _ = small_model
        same = np.tile(np.linspace(20, 2, 20), (10, 1))
        with pytest.raises(ValueError, match="variance"):
            latent_chargeability_correlation(vae_mod.encode(model, same)[0], same)

    def test_untrained_model_negative_control(self, small_corpus):
        # no bound asserted for a freshly initialized model; recorded only
        from ipvae.vae import VaeModel

        _, decays = small_corpus
        model = VaeModel.initialize(rng=77)
        subset = decays[:1000]
        r = latent_chargeability_correlation(vae_mod.encode(model, subset)[0], subset)
        assert np.all(np.isfinite(r))


class TestLossAtConvergence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("window", [1000, 10_000])
    def test_bit_equal_to_mean_of_lists(self, seed, window):
        # a (steps, 3) curve of the README run's length, against the mean of
        # each term's Python list, which is how the values were first taken
        curve = np.random.default_rng(seed).lognormal(3.0, 1.0, (6250, 3))
        rows = curve.tolist()[-window:]
        expected = tuple(float(np.mean([r[j] for r in rows])) for j in range(3))
        assert loss_at_convergence(curve, window) == expected


class TestLatentSweep:
    def test_smoke_all_ks_finite(self, small_corpus):
        _, noisy = small_corpus
        rows, models = latent_sweep(
            noisy[:4000], ks=(1, 2), config=TrainConfig(seed=3), n_realizations=10
        )
        assert [r.latent_dim for r in rows] == [1, 2]
        assert [m.latent_dim for m in models] == [1, 2]
        for r in rows:
            for value in (r.nll, r.kl, r.train_snr_db, r.train_rmse, r.dlc_diff):
                assert np.isfinite(value)

    def test_error_annotated_with_k(self, small_corpus):
        _, noisy = small_corpus
        with pytest.raises(TrainingDivergedError, match="K=1"):
            latent_sweep(
                noisy[:2000], ks=(1,), config=TrainConfig(seed=3, lr=1e6),
                n_realizations=5,
            )


class TestFittedSlope:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        assert fitted_slope(x, 2.5 * x + 1.0) == pytest.approx(2.5, rel=1e-12)
