import copy
import math
import multiprocessing
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ipvae import analysis, data, nn
from ipvae import filters as flt
from ipvae import vae as vae_mod
from ipvae.analysis import (
    denoise_all,
    denoise_matrix,
    denoising_benchmark,
    density_chart,
    density_range,
    dlc_difference,
    fitted_slope,
    latent_chargeability_correlation,
    latent_sweep,
    loss_at_convergence,
    peak_snr,
    rmse,
    survey_snr_histogram,
)
from ipvae.vae import TrainConfig, TrainingDivergedError, sample_matrix

from conftest import quantiles


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

    def test_zero_rows_give_empty_results(self, small_model):
        model, _ = small_model
        res = denoise_all(model, np.empty((0, model.input_dim)), n_realizations=10, rng=4)
        for band in (res.median, res.ci_low, res.ci_high):
            assert band.shape == (0, model.input_dim)
        for metric in (res.rmse, res.peak_snr, res.outlier):
            assert metric.shape == (0,)

    def test_realization_floor(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        with pytest.raises(ValueError, match="realizations"):
            denoise_all(model, decays[:1], n_realizations=1, rng=9)

    def test_constant_decay_rejected_before_any_draw(self, small_model, small_corpus):
        model, _ = small_model
        values = small_corpus[1][:600].copy()
        values[300] = 5.0  # in the second noise group
        rng = np.random.default_rng(11)
        state = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(ValueError) as exc_info:
            denoise_all(model, values, n_realizations=10, rng=rng)
        assert str(exc_info.value) == "peak S/N is undefined for a constant input (zero range)"
        assert rng.bit_generator.state == state

    def test_threshold_controls_flag(self, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        res = denoise_all(model, decays[:50], n_realizations=50, rng=10)
        strict = denoise_all(model, decays[:50], n_realizations=50, threshold=1e-9, rng=10)
        assert np.all(strict.outlier)
        assert np.array_equal(res.outlier, res.rmse > 1.0)

    def test_levels_must_be_a_stack(self, small_model, small_corpus):
        # one survey is one level, values[None]; a bare (n, d) is refused
        model, _ = small_model
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"\(L, n, d\) stack"):
            denoise_matrix(model, small_corpus[1][:10], 10, rng, lambda rows, *bands: bands)
        assert rng.bit_generator.state == before

    def test_realization_floor_checked_before_the_root_draw(self, small_model, small_corpus):
        model, _ = small_model
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="realizations"):
            quantiles(model, small_corpus[1][:10], 1, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_unusable_scale_rejected_before_the_root_draw(self, small_model, small_corpus,
                                                          scale):
        """The groups sort standardized reconstructions, which keeps the
        order of the unstandardized ones only for a finite scale > 0."""
        model = replace(small_model[0], input_scale=scale)
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="input_scale must be finite and > 0"):
            quantiles(model, small_corpus[1][:10], 10, rng)
        assert rng.bit_generator.state == before


def unblocked_denoise_matrix(model, values, n_realizations, rng):
    """The pre-blocking denoise_matrix: one root draw from ``rng``, each
    256-row group's (rows, R, K) noise in one draw from its own keyed
    stream, R separate decodes of all n rows, all R·n·d reconstructions
    held, then np.quantile over them."""
    root = np.random.default_rng(rng).integers(2**63, size=2)
    mu, sigma = vae_mod.encode(model, values)
    n, k = mu.shape
    eps = np.empty((n, n_realizations, k))
    for g, first in enumerate(range(0, n, 256)):
        group = np.random.default_rng(np.random.SeedSequence(root, spawn_key=(g,)))
        eps[first:first + 256] = group.standard_normal((min(256, n - first), n_realizations, k))
    recs = np.empty((n_realizations, values.shape[0], values.shape[1]))
    for r in range(n_realizations):
        recs[r] = vae_mod.decode(model, mu + eps[:, r] * sigma)
    lo, med, hi = np.quantile(recs, (0.025, 0.5, 0.975), axis=0)
    return med, lo, hi


def after_root_draw(rng):
    """The state a copy of ``rng`` is in after denoise_matrix's root draw."""
    rng = copy.deepcopy(rng)
    rng.integers(2**63, size=2)
    return rng.bit_generator.state


def same_state(a, b):
    """Whether two bit generator states are equal, arrays element by element."""
    return a.keys() == b.keys() and all(
        same_state(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
        for k in a)


class TestBlockedDenoise:
    # at R=820 a block is one row
    @pytest.mark.parametrize("realizations", [2, 3, 37, 100, 820])
    @pytest.mark.parametrize("rows", ["1", "b-1", "b", "b+1", "g+1", "1000"])
    def test_matches_unblocked_quantiles(self, small_model, small_corpus,
                                         realizations, rows):
        model, _ = small_model
        _, decays = small_corpus
        block = vae_mod._block_rows(model.decoder.layers, realizations)
        n = {"1": 1, "b-1": block - 1, "b": block, "b+1": block + 1, "g+1": 257,
             "1000": 1000}[rows]
        old_rng, new_rng = np.random.default_rng(17), np.random.default_rng(17)
        expected = unblocked_denoise_matrix(model, decays[:n], realizations, old_rng)
        got = quantiles(model, decays[:n], realizations, new_rng)
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


    @pytest.mark.parametrize("force", ["serial", "pool"])
    def test_nan_row_gives_nan_quantiles_in_that_row_only(self, monkeypatch, small_model,
                                                          small_corpus, force):
        """A decay with a NaN window has a NaN latent mean; its quantiles are
        NaN, as np.quantile gives them, and every other row keeps its bits."""
        model, _ = small_model
        values = small_corpus[1][:600].copy()
        values[300, 4] = np.nan
        expected = unblocked_denoise_matrix(model, values, 37, 5)
        with monkeypatch.context() as m:
            force_serial(m) if force == "serial" else force_pool(m, any_size=True)
            got = quantiles(model, values, 37, 5)
        for e, g in zip(expected, got):
            assert np.isnan(e[300]).all() and np.isnan(g[300]).all()
            others = np.delete(g, 300, axis=0)
            assert not np.isnan(others).any()
            assert others.tobytes() == np.delete(e, 300, axis=0).tobytes()

    def test_one_workspace_per_process_and_call(self, monkeypatch, small_model,
                                                small_corpus):
        """A serial call builds one workspace for all its groups, and each
        call its own; the parent of a pooled call builds none."""
        model, _ = small_model
        values = small_corpus[1][:1000]  # four noise groups
        built, workspace = [], analysis._Workspace

        class Counted(workspace):
            def __init__(self, *args):
                built.append(os.getpid())
                super().__init__(*args)

        monkeypatch.setattr(analysis, "_Workspace", Counted)
        with monkeypatch.context() as m:
            force_serial(m)
            quantiles(model, values, 100, rng=3)
            quantiles(model, values, 37, rng=3)
        assert built == [os.getpid()] * 2
        with monkeypatch.context() as m:
            force_pool(m, any_size=True)
            quantiles(model, values, 100, rng=3)
        assert built == [os.getpid()] * 2

    def test_zero_rows(self, small_model):
        model, _ = small_model
        rng = np.random.default_rng(17)
        expected = after_root_draw(rng)
        for got in quantiles(model, np.empty((0, model.input_dim)), 100, rng):
            assert got.shape == (0, model.input_dim)
        assert rng.bit_generator.state == expected

    @pytest.mark.parametrize("force", ["serial", "pool"])
    @pytest.mark.parametrize("realizations", [2, 37, 400])
    @pytest.mark.parametrize("n", [0, 1, 255, 257, 3000])
    def test_generator_advances_by_the_root_draw_only(self, monkeypatch, small_model,
                                                      small_corpus, n, realizations, force):
        model, _ = small_model
        rng = np.random.Generator(np.random.PCG64(23))
        expected = after_root_draw(rng)
        with monkeypatch.context() as m:
            force_serial(m) if force == "serial" else force_pool(m, any_size=True)
            quantiles(model, small_corpus[1][:n], realizations, rng)
        assert rng.bit_generator.state == expected

    @pytest.mark.parametrize("force", ["serial", "pool"])
    @pytest.mark.parametrize("kind", [np.random.MT19937, np.random.Philox, np.random.SFC64])
    def test_other_bit_generators(self, monkeypatch, small_model, small_corpus, kind, force):
        model, _ = small_model
        values = small_corpus[1][:1000]
        old_rng, new_rng = (np.random.Generator(kind(17)) for _ in range(2))
        expected = unblocked_denoise_matrix(model, values, 100, old_rng)
        with monkeypatch.context() as m:
            force_serial(m) if force == "serial" else force_pool(m, any_size=True)
            got = quantiles(model, values, 100, new_rng)
        assert type(new_rng.bit_generator) is kind
        assert same_state(new_rng.bit_generator.state, old_rng.bit_generator.state)
        for e, g in zip(expected, got):
            assert g.tobytes() == e.tobytes()

    def test_memory_does_not_grow_with_realizations(self, monkeypatch, small_model,
                                                    small_corpus):
        model, _ = small_model
        values = small_corpus[1][:2000]
        force_serial(monkeypatch)
        peaks = []
        for realizations in (100, 400):
            tracemalloc.start()
            try:
                quantiles(model, values, realizations, rng=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the whole (n, R, K) noise of R=400 would hold 9.6 MB more than R=100's
        assert peaks[1] - peaks[0] < 2 * 2**20

    def test_no_product_above_the_block_rule(self, monkeypatch, small_model, small_corpus):
        """No encoder or decoder layer product of a 20k-row call has more
        than 2^18 multiply-adds, the most OpenBLAS runs on the calling
        thread. The latent heads (8 -> K) are narrower than the layers
        counted here."""
        model, _ = small_model
        values = small_corpus[1]
        products, dense, matmul = [], nn._dense, np.matmul

        def counted(x, w, b, tanh):
            products.append(len(x) * w.size)
            return dense(x, w, b, tanh)

        def counted_into(x, w, out):  # the denoising decode, nn.Mlp.forward_into
            products.append(len(x) * w.size)
            return matmul(x, w, out=out)

        monkeypatch.setattr(nn, "_dense", counted)
        monkeypatch.setattr(np, "matmul", counted_into)
        force_serial(monkeypatch)  # every product is counted in this process
        for call in (lambda: vae_mod.encode(model, values),
                     lambda: sample_matrix(model, 20_000, 1.0, rng=1),
                     lambda: quantiles(model, values, 100, rng=2),
                     lambda: denoising_benchmark(model, 20_000, (1.0,), seed=3,
                                                 n_realizations=2)):
            products.clear()
            call()
            assert products and max(products) <= vae_mod._BLOCK_MULTIPLY_ADDS


def force_serial(m):
    m.setattr(data, "_usable_cpus", lambda: 1)


def force_pool(m, any_size):
    """Decode in a pool of three workers (more than some hosts have cores)
    and fail if a call that should be pooled decodes a group in the calling
    process. With ``any_size`` every call of two or more groups is pooled;
    otherwise only calls at or above the normal threshold are."""
    parent, denoise_rows = os.getpid(), analysis._denoise_rows
    threshold = 0 if any_size else analysis._POOL_MIN_SAMPLES

    def in_worker(shared, rows):
        _, levels, realizations, *_ = shared
        decays = levels.shape[0] * levels.shape[1]
        if (os.getpid() == parent and decays > analysis._NOISE_ROWS
                and realizations * decays >= threshold):
            raise AssertionError("groups decoded outside the pool")
        return denoise_rows(shared, rows)

    m.setattr(data, "_usable_cpus", lambda: 3)
    m.setattr(analysis, "_POOL_MIN_SAMPLES", threshold)
    m.setattr(analysis, "_denoise_rows", in_worker)


def test_window_count_mismatch_rejected_before_any_group(monkeypatch, small_model,
                                                        small_corpus):
    """A stack whose window count is not the model's is rejected in the
    parent, before the root draw and before any group runs."""
    model, _ = small_model
    levels = small_corpus[1][None, :20_000, :19]
    rng = np.random.default_rng(9)
    before, mapped = rng.bit_generator.state, []
    with monkeypatch.context() as m:
        force_pool(m, any_size=True)
        map_rows = data._map_rows
        m.setattr(data, "_map_rows", lambda *args: mapped.append(args) or map_rows(*args))
        with pytest.raises(ValueError, match="^input dim 19 does not match model dim 20$"):
            denoise_matrix(model, levels, 100, rng, lambda rows, *bands: bands)
    assert mapped == [] and rng.bit_generator.state == before


class TestPooledDenoise:
    """Groups decoded by the process pool give the serial bits and leave the
    generator in the same state."""

    # block-tasks: every call of two or more groups is pooled; sized-tasks:
    # only calls of 2^18 samples or more, as without the patch
    @pytest.mark.parametrize("any_size", [True, False], ids=["block-tasks", "sized-tasks"])
    @pytest.mark.parametrize("realizations", [2, 3, 37, 100, 400])
    @pytest.mark.parametrize("rows", ["1", "b-1", "b", "b+1", "g+1", "1000", "20001"])
    def test_pooled_equals_serial(self, monkeypatch, small_model, small_corpus,
                                  realizations, rows, any_size):
        model, _ = small_model
        _, decays = small_corpus
        block = vae_mod._block_rows(model.decoder.layers, realizations)
        n = {"1": 1, "b-1": block - 1, "b": block, "b+1": block + 1, "g+1": 257,
             "1000": 1000, "20001": 20_001}[rows]
        values = np.concatenate([decays, decays[:1]])[:n]
        results, states = [], []
        for force in (force_serial, lambda m: force_pool(m, any_size)):
            rng = np.random.default_rng(29)
            with monkeypatch.context() as m, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                force(m)
                results.append(quantiles(model, values, realizations, rng))
            states.append(rng.bit_generator.state)
            # Python 3.12 warns when it forks a process that runs threads
            assert [w for w in caught if "fork" in str(w.message)] == []
        serial, pooled = results
        assert states[1] == states[0]
        for s, p in zip(serial, pooled):
            assert s.shape == (n, decays.shape[1])
            assert p.tobytes() == s.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("rows", ["2", "b-1", "1000"])
    def test_prefix_rows_get_the_same_bits(self, monkeypatch, small_model, small_corpus,
                                           rows):
        """A row's noise depends only on its group and its place in it, so
        the first m rows of a pooled 20k call equal a call on those m rows.
        One row is left out: a one-row encode goes through gemv."""
        model, _ = small_model
        values = small_corpus[1]
        assert len(values) == 20_000
        block = vae_mod._block_rows(model.decoder.layers, 100)
        m = {"2": 2, "b-1": block - 1, "1000": 1000}[rows]
        with monkeypatch.context() as mp:
            force_pool(mp, any_size=False)
            whole = quantiles(model, values, 100, rng=11)
        for w, p in zip(whole, quantiles(model, values[:m], 100, rng=11)):
            assert w[:m].tobytes() == p.tobytes()

    @pytest.mark.parametrize("force", ["serial", "pool"])
    def test_outputs_filled_as_groups_arrive(self, monkeypatch, small_model, small_corpus,
                                             force):
        """A call whose groups return three (n, d) outputs holds them and
        little more: each group's quantiles are placed as they arrive, not
        kept to be joined at the end, which would hold them twice."""
        model, _ = small_model
        values = small_corpus[1]  # 20k x 100 samples: a pooled size
        force_serial(monkeypatch) if force == "serial" else force_pool(monkeypatch, False)
        tracemalloc.start()
        try:
            outs = quantiles(model, values, 100, rng=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(out.nbytes for out in outs)

    @pytest.mark.parametrize("force", ["serial", "pool"])
    @pytest.mark.parametrize("n", [1, 300])
    def test_levels_equal_one_call_each(self, monkeypatch, small_model, small_corpus,
                                        n, force):
        """A call on three stacked levels gives each level the bits of a call
        on it alone, placed with level l's decay i at row l·n + i, and
        advances the generator by the same three roots. A one-row level is
        encoded alone, through gemv, as in its own call."""
        model, _ = small_model
        levels = small_corpus[1][:3 * n].reshape(3, n, -1)
        rng = np.random.default_rng(31)
        with monkeypatch.context() as m:
            force_serial(m) if force == "serial" else force_pool(m, any_size=True)
            *got, placed = denoise_matrix(
                model, levels, 37, rng,
                lambda rows, *bands: (*bands, np.arange(rows.start, rows.stop)))
        assert placed.tobytes() == np.arange(3 * n).tobytes()
        got = np.array(got)
        one_by_one = np.random.default_rng(31)
        with monkeypatch.context() as m:
            force_serial(m)
            expected = [quantiles(model, values, 37, one_by_one) for values in levels]
        assert rng.bit_generator.state == one_by_one.bit_generator.state
        for level, bands in enumerate(expected):
            assert got[:, level * n:(level + 1) * n].tobytes() == np.array(bands).tobytes()
        assert multiprocessing.active_children() == []

    def test_fork_unsafe_after_planning(self, monkeypatch, small_model, small_corpus):
        """A call of pooled size on 3 CPUs, where a fork is not safe, decodes
        every group in this process, with the bits of a pooled call, and
        starts no child."""
        model, _ = small_model
        values = small_corpus[1][:3000]  # 3000 x 100 samples: a pooled size
        with monkeypatch.context() as m:
            force_pool(m, any_size=False)
            expected = quantiles(model, values, 100, rng=3)
        parent, denoise_rows, decoded_here = os.getpid(), analysis._denoise_rows, []

        def recorded(shared, rows):
            decoded_here.append(os.getpid() == parent)
            return denoise_rows(shared, rows)

        with monkeypatch.context() as m:
            m.setattr(data, "_usable_cpus", lambda: 3)
            m.setattr(data, "_fork_context", lambda: None)
            m.setattr(analysis, "_denoise_rows", recorded)
            got = quantiles(model, values, 100, rng=3)
        assert decoded_here == [True] * 12  # every 256-row group
        assert multiprocessing.active_children() == []
        for e, g in zip(expected, got):
            assert g.tobytes() == e.tobytes()

    def test_block_rows_from_model(self, small_model):
        model, _ = small_model
        # widest decoder layer 16 -> 20: 2**18 // (100 * 320) rows at R=100
        assert vae_mod._block_rows(model.decoder.layers, 100) == 8
        assert vae_mod._block_rows(model.decoder.layers, 2) == 409
        assert vae_mod._block_rows(model.decoder.layers, 10**6) == 1
        # one sample per row through the 20 -> 16 encoder layer: 2**18 // 320
        encoder = [*model.encoder.layers, model.mu_head, model.logvar_head]
        assert vae_mod._block_rows(encoder) == 819

    def test_worker_error_reaches_caller(self, monkeypatch, small_model, small_corpus):
        model, _ = small_model
        _, decays = small_corpus
        parent, denoise_rows = os.getpid(), analysis._denoise_rows

        def failing(shared, rows):
            if os.getpid() != parent:
                raise RuntimeError(f"decode failed at row {rows.start}")
            return denoise_rows(shared, rows)

        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(analysis, "_POOL_MIN_SAMPLES", 0)
        monkeypatch.setattr(analysis, "_denoise_rows", failing)
        with pytest.raises(RuntimeError, match=r"decode failed at row \d+"):
            quantiles(model, decays[:1000], 100, rng=3)  # four noise groups
        assert multiprocessing.active_children() == []


def reference_benchmark(model, n, sigmas, seed, realizations):
    """The comparison level by level: one denoise_matrix call, drawing its
    root from the shared generator, and one tune_batch per filter kind."""
    rng = np.random.default_rng(seed)
    truth = sample_matrix(model, n, sigma_scale=1.0, rng=rng)
    unit_noise = rng.standard_normal(truth.shape)
    out = {}
    for sigma in sigmas:
        noisy = truth + sigma * unit_noise
        median, _, _ = quantiles(model, noisy, realizations, rng)
        errs = [rmse(noisy, truth), rmse(median, truth),
                *(flt.tune_batch(kind, noisy, truth)[2] for kind in ("MA", "EMA", "Butterworth"))]
        out[float(sigma)] = {name: (float(np.mean(e)), float(np.std(e)))
                             for name, e in zip(analysis.BENCH_METHODS, errs)}
    return out


class TestDenoisingBenchmark:
    """All levels in one pass of 256-row tasks give the bits of the
    level-by-level reference, in this process and in the pool."""

    @pytest.mark.parametrize("force", ["serial", "pool"])
    @pytest.mark.parametrize("n", [1, 300, 2000])
    def test_equals_level_by_level(self, monkeypatch, small_model, n, force):
        model, _ = small_model
        sigmas = (0.0, 1.1, 3.0)
        with monkeypatch.context() as m:
            force_serial(m)
            expected = reference_benchmark(model, n, sigmas, 19, 10)
        with monkeypatch.context() as m:
            force_serial(m) if force == "serial" else force_pool(m, any_size=True)
            got = denoising_benchmark(model, n, sigmas, seed=19, n_realizations=10)
        assert list(got) == list(expected) == [0.0, 1.1, 3.0]
        for sigma in sigmas:
            assert list(got[sigma]) == list(analysis.BENCH_METHODS)
            for name, mean_std in expected[sigma].items():
                assert np.array(got[sigma][name]).tobytes() == np.array(mean_std).tobytes()
        assert multiprocessing.active_children() == []


    @pytest.mark.parametrize("n", [0, -1])
    def test_no_decays_rejected_before_any_draw(self, monkeypatch, small_model, n):
        # n = 0 would summarize empty levels as NaN, with a RuntimeWarning
        model, _ = small_model

        def never(*args, **kwargs):
            raise AssertionError("drew before n was checked")
        monkeypatch.setattr(vae_mod, "sample_matrix", never)
        with pytest.raises(ValueError, match="n must be >= 1"):
            denoising_benchmark(model, n, (0.0, 1.0), seed=3, n_realizations=4)

    @pytest.mark.parametrize("realizations", [1, 0])
    def test_one_realization_rejected_before_any_draw(self, monkeypatch, small_model,
                                                      realizations):
        """The realization count is checked before the 50k-decay truth is
        sampled, with the error ``denoise_matrix`` raises."""
        model, _ = small_model
        calls, sample_matrix = [], vae_mod.sample_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_matrix(*args, **kwargs)
        monkeypatch.setattr(vae_mod, "sample_matrix", counted)
        with pytest.raises(ValueError) as from_benchmark:
            denoising_benchmark(model, 50_000, (0.0, 1.0), seed=1, n_realizations=realizations)
        assert calls == []
        with pytest.raises(ValueError) as from_matrix:
            denoise_matrix(model, np.ones((1, 1, model.input_dim)), realizations, 1,
                           lambda rows, *bands: bands)
        assert str(from_benchmark.value) == str(from_matrix.value)
        assert str(from_matrix.value) == f"n_realizations must be >= 2, got {realizations}"

    def test_repeated_sigma_raises(self, small_model):
        # results are keyed by sigma: a repeat would keep one level's numbers
        model, _ = small_model
        with pytest.raises(ValueError, match="must not repeat"):
            denoising_benchmark(model, 20, (1.0, 1.0, 2.0), seed=3, n_realizations=4)


class TestSortedQuantiles:
    @pytest.mark.parametrize("realizations", [2, 3, 7, 100, 101])
    def test_bit_equal_to_np_quantile_with_ties(self, realizations):
        rng = np.random.default_rng(realizations)
        # few distinct values, so most order statistics are tied
        x = rng.integers(-3, 4, size=(40, realizations)).astype(np.float64) * 0.1
        x[0] = rng.standard_normal(realizations)
        x[1, realizations // 2] = np.nan
        qs = (0.0, 0.025, 0.25, 0.5, 0.975, 0.999, 1.0)
        # the denoising groups keep only the sorted values at these ranks
        ranks = analysis._quantile_ranks(realizations, qs)
        got = analysis._ranked_quantiles(np.sort(x, axis=-1)[:, ranks], realizations, qs, ranks)
        for q, g in zip(qs, got):
            assert g.tobytes() == np.quantile(x, q, axis=-1).tobytes(), q
        assert np.isnan(got[3][1])

    @pytest.mark.parametrize("realizations", [2, 3, 100])
    def test_band_of_a_slice_holding_one_nan_is_nan(self, realizations):
        """The band's ranks include the last, where a NaN sorts, though no
        quantile of the band reads it."""
        x = np.random.default_rng(realizations).standard_normal((4, realizations))
        x[1, 0] = np.nan
        band = analysis._BAND
        ranks = analysis._quantile_ranks(realizations, band)
        got = analysis._ranked_quantiles(np.sort(x, axis=-1)[:, ranks], realizations, band,
                                         ranks)
        for q, g in zip(band, got):
            assert g.tobytes() == np.quantile(x, q, axis=-1).tobytes(), q
            assert np.isnan(g[1]) and not np.isnan(np.delete(g, 1)).any()


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

    @pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
    def test_bin_width_checked_before_denoising(self, monkeypatch, small_model,
                                                small_corpus, width):
        model, _ = small_model

        def never(*args, **kwargs):
            raise AssertionError("denoised before the bin width was checked")
        monkeypatch.setattr(analysis, "denoise_matrix", never)
        with pytest.raises(ValueError, match="bin_width_db must be finite and > 0"):
            survey_snr_histogram(small_corpus[1][:100], model, bin_width_db=width)

    @pytest.mark.parametrize("width", [1e-12, 5e-324])
    def test_too_fine_bin_width_rejected_before_any_bin(self, small_model, small_corpus,
                                                        width):
        """1e-12 dB spans a survey's S/N values with about 10^13 bins
        (151 TiB of edges); 5e-324 divides them to inf."""
        model, _ = small_model
        with pytest.raises(ValueError, match=f"bins, at most {analysis._MAX_SNR_BINS}$"):
            survey_snr_histogram(small_corpus[1][:300], model, bin_width_db=width,
                                 n_realizations=10, rng=3)

    def test_bin_cap_is_on_the_span_in_bin_widths(self, monkeypatch, small_model,
                                                  small_corpus):
        model, _ = small_model
        values = small_corpus[1][:300]
        snrs = denoise_all(model, values, n_realizations=10, rng=3).peak_snr
        span = float(snrs.max() - snrs.min())  # in 1 dB bins
        monkeypatch.setattr(analysis, "_MAX_SNR_BINS", math.ceil(span))
        hist = survey_snr_histogram(values, model, n_realizations=10, rng=3)
        assert hist.total == 300
        monkeypatch.setattr(analysis, "_MAX_SNR_BINS", math.floor(span))
        with pytest.raises(ValueError, match=f"with {span:.4g} bins, at most {math.floor(span)}"):
            survey_snr_histogram(values, model, n_realizations=10, rng=3)

    def test_constant_decay_rejected_before_denoising(self, monkeypatch, small_model,
                                                      small_corpus):
        model, _ = small_model
        values = small_corpus[1][:3000].copy()
        values[2900] = 5.0  # last group: a per-group check meets it after the others

        def never(*args, **kwargs):
            raise AssertionError("denoised before the corpus was checked")
        monkeypatch.setattr(analysis, "denoise_matrix", never)
        with pytest.raises(ValueError, match=r"constant input \(zero range\)"):
            survey_snr_histogram(values, model, n_realizations=10, rng=3)


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

    def test_binned_one_column_at_a_time(self, small_corpus):
        """The grid of the whole-matrix binning formula, bit for bit, with no
        (n, d) temporary: the peak stays below a quarter of the values."""
        values = small_corpus[1]
        lo, hi = 0.0, 40.0  # both tails fall outside
        idx = np.clip(((values - lo) / (hi - lo) * 100).astype(int), 0, 99)
        expected = np.stack([np.bincount(idx[:, j], minlength=100)
                             for j in range(values.shape[1])], axis=1) / len(values)
        tracemalloc.start()
        try:
            chart = density_chart(values, bins=100, amplitude_range=(lo, hi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chart.grid.tobytes() == expected.tobytes()
        assert peak < values.nbytes / 4


def percentile_range(values, coverage):
    """The range density_range had when it called np.percentile."""
    tail = 100.0 * (1.0 - coverage) / 2.0
    lo, hi = np.percentile(values, (tail, 100.0 - tail))
    if hi <= lo:
        hi = lo + 1.0
    return float(lo), float(hi)


class TestDensityRange:
    def test_bit_equal_to_np_percentile(self):
        """Normal, exponential, heavily tied small-integer and constant
        populations of 1 to 10^5 values, d = 1 among the widths, over
        coverages that put the ranks in the tails, the middle and the ends."""
        rng = np.random.default_rng(22)
        for case in range(320):
            size = int(rng.integers(1, 10**5 + 1)) if case % 2 else int(rng.integers(1, 60))
            d = int(rng.choice([1, 1, 2, 3, 7, 20]))
            shape = (max(1, size // d), d)
            kind = case % 4
            if kind == 0:
                values = rng.normal(3.0, 4.0, shape)
            elif kind == 1:
                values = rng.exponential(2.0, shape)
            elif kind == 2:
                values = rng.integers(-3, 4, shape).astype(np.float64)
            else:
                values = np.full(shape, rng.standard_normal())
            coverage = float(rng.choice([analysis.DENSITY_COVERAGE, 0.9, 0.5, 0.0, 1.0,
                                         rng.uniform()]))
            got = density_range(values, coverage)
            expected = percentile_range(values, coverage)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (shape, kind, coverage)
        # a last rank taken twice is weighted by its virtual index + 1, which
        # turns a top of -0.0 into 0.0
        for values in (np.full((1, 1), -0.0), np.array([[-1.0], [-0.0], [-0.0]]),
                       np.full((4, 1), np.inf)):
            for coverage in (0.0, analysis.DENSITY_COVERAGE, 1.0):
                with np.errstate(invalid="ignore"):
                    expected = percentile_range(values, coverage)
                got = density_range(values, coverage)
                assert np.array(got).tobytes() == np.array(expected).tobytes(), (values, coverage)

    def test_bracket_widened_when_the_sample_misses(self):
        """1e6 on every 14th row: 4287 values spread over every block, more
        than the upper tail holds at the default coverage, so the kept tail
        is cut back block after block and its rank lands among the 1e6s."""
        values = np.random.default_rng(5).standard_normal((20_000, 3))
        values[::14] = 1e6
        for coverage in (analysis.DENSITY_COVERAGE, 0.5):
            got = density_range(values, coverage)
            expected = percentile_range(values, coverage)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), coverage

    def test_nan_gives_nan_bounds(self):
        """A NaN between, in the first block or in the last row sorts last
        and gives NaN bounds, as np.percentile does."""
        for row, column in ((4321, 7), (0, 0), (4999, 19)):
            values = np.random.default_rng(6).standard_normal((5000, 20))
            values[row, column] = np.nan
            assert np.isnan(percentile_range(values, analysis.DENSITY_COVERAGE)).all()
            assert np.isnan(density_range(values)).all(), (row, column)

    @pytest.mark.parametrize("coverage", [-1.5, -0.1, 1.0 + 1e-9, 1.5, math.nan])
    def test_coverage_outside_unit_interval_raises(self, coverage):
        """np.percentile rejects the coverages that put a percentile outside
        [0, 100]; those in [-1, 0) gave it lo > hi, and a range of width 1."""
        values = np.ones((10, 20))
        if not -1.0 <= coverage <= 1.0:
            with pytest.raises(ValueError, match="Percentiles must be in the range"):
                percentile_range(values, coverage)
        with pytest.raises(ValueError, match=r"coverage must be in \[0, 1\], got"):
            density_range(values, coverage)

    def test_corpus_not_copied(self, small_corpus):
        values = small_corpus[1]
        tracemalloc.start()
        try:
            got = density_range(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == percentile_range(values, analysis.DENSITY_COVERAGE)
        assert peak < values.nbytes / 4


class TestModelChart:
    @pytest.mark.parametrize("bins", [1, 37, 100])
    def test_bit_equal_to_chart_of_sample(self, small_model, small_corpus, monkeypatch, bins):
        """The chart of the sample ``sample_matrix`` draws, on the corpus
        chart's range and bins, from decoder products of the same shapes,
        and a shared generator left as that draw leaves it. The default
        model decodes blocks of at most 819 rows: 820 and 20 000 rows take
        two and 25."""
        model, _ = small_model
        corpus_chart = density_chart(small_corpus[1][:5000], bins=bins)
        decoded, forward = [], nn.Mlp.forward
        monkeypatch.setattr(nn.Mlp, "forward",
                            lambda mlp, z: decoded.append(z.shape) or forward(mlp, z))
        for n in (1, 2, 3, 819, 820, 3000, 20_000):
            rng, expected_rng = np.random.default_rng(7), np.random.default_rng(7)
            chart = analysis.model_chart(model, n, corpus_chart, rng)
            chart_shapes = decoded.copy()
            decoded.clear()
            expected = density_chart(sample_matrix(model, n, sigma_scale=1.0, rng=expected_rng),
                                     bins, corpus_chart.amplitude_range)
            assert chart.grid.tobytes() == expected.grid.tobytes(), n
            assert (chart.amplitude_range, chart.bins) == (corpus_chart.amplitude_range, bins)
            assert same_state(rng.bit_generator.state, expected_rng.bit_generator.state), n
            assert chart_shapes == decoded, n
            decoded.clear()

    def test_sample_not_held(self, small_model, small_corpus):
        """At 20k decays the chart peaks below a quarter of the (n, d)
        sample it bins."""
        model, _ = small_model
        corpus_chart = density_chart(small_corpus[1])
        analysis.model_chart(model, 100, corpus_chart, 7)  # lazy set-up
        tracemalloc.start()
        try:
            analysis.model_chart(model, 20_000, corpus_chart, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * model.input_dim * 8 / 4


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

    def test_no_model_sample_outlives_its_chart(self, monkeypatch, small_corpus):
        """Serial and in process, a two-width sweep of 20k decays peaks below
        twice their values: one width's (n, d) model sample lives only while
        it is binned, never beside the next width's."""
        values = small_corpus[1]
        force_serial(monkeypatch)
        tracemalloc.start()
        try:
            latent_sweep(values, ks=(1, 2), config=TrainConfig(seed=3), n_realizations=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * values.nbytes

    def test_constant_decay_rejected_before_training(self, monkeypatch, small_corpus):
        values = small_corpus[1][:2000].copy()
        values[1999] = 5.0

        def never(*args, **kwargs):
            raise AssertionError("trained before the corpus was checked")
        monkeypatch.setattr(vae_mod, "train_new", never)
        with pytest.raises(ValueError, match=r"constant input \(zero range\)"):
            latent_sweep(values, ks=(1,), config=TrainConfig(seed=3), n_realizations=5)

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
