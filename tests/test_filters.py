import tracemalloc

import numpy as np
import pytest

from ipvae.data import SyntheticSpec, synthesize_corpus
from ipvae.filters import (
    CUTOFF_GRID,
    EMA_GRID,
    MA_GRID,
    butterworth_coeffs,
    butterworth_lowpass,
    exponential_moving_average,
    moving_average,
    tune_batch,
)


def measured_gain(cutoff, freq, n=4096):
    """Steady-state amplitude ratio of the filter on a long sinusoid,
    fitted by projection onto the quadrature pair (transient discarded)."""
    t = np.arange(n)
    x = np.sin(np.pi * freq * t)
    y = butterworth_lowpass(x, cutoff)
    keep = slice(n // 2, None)
    basis = np.stack([np.sin(np.pi * freq * t[keep]), np.cos(np.pi * freq * t[keep])], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y[keep], rcond=None)
    return float(np.hypot(*coef))


class TestMovingAverage:
    def test_order_one_is_identity(self):
        x = np.array([5.0, 1.0, 4.0, 2.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_constant_preserved(self):
        x = np.full(20, 7.5)
        assert np.allclose(moving_average(x, 5), x)

    def test_hand_computed_edge_replication(self):
        x = np.array([1.0, 2.0, 6.0, 2.0, 1.0])
        expected = np.array([4.0 / 3.0, 3.0, 10.0 / 3.0, 3.0, 4.0 / 3.0])
        assert np.allclose(moving_average(x, 3), expected, rtol=1e-12)

    @pytest.mark.parametrize("order", [0, 2, 4, 41, -3])
    def test_invalid_order(self, order):
        with pytest.raises(ValueError):
            moving_average(np.ones(20), order)


class TestExponentialMovingAverage:
    def test_alpha_one_identity(self):
        x = np.array([4.0, -1.0, 2.0, 8.0])
        assert np.array_equal(exponential_moving_average(x, 1.0), x)

    def test_alpha_zero_holds_first_value(self):
        x = np.array([4.0, -1.0, 2.0, 8.0])
        assert np.array_equal(exponential_moving_average(x, 0.0), np.full(4, 4.0))

    def test_unrolled_recursion(self):
        out = exponential_moving_average(np.array([2.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out, [2.0, 1.0, 0.5], rtol=1e-12)

    def test_matches_reference_recursion_over_grid(self):
        rows = np.random.default_rng(9).normal(5.0, 3.0, (200, 20))
        for alpha in EMA_GRID:
            expected = np.empty_like(rows)
            expected[:, 0] = rows[:, 0]
            for j in range(1, rows.shape[1]):
                expected[:, j] = alpha * rows[:, j] + (1.0 - alpha) * expected[:, j - 1]
            assert np.array_equal(exponential_moving_average(rows, alpha), expected)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            exponential_moving_average(np.ones(5), 1.2)


class TestButterworth:
    def test_constant_preserved(self):
        x = np.full(20, 3.25)
        assert np.allclose(butterworth_lowpass(x, 0.3), x, rtol=1e-12)

    def test_half_power_at_cutoff(self):
        for cutoff in (0.1, 0.3, 0.6):
            gain = measured_gain(cutoff, cutoff)
            assert gain == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)

    def test_gain_at_three_times_cutoff(self):
        # analog prototype: G(3 w_n) = 1/sqrt(10); bilinear warping stays
        # within 1% at a small cutoff
        gain = measured_gain(0.02, 0.06)
        assert gain == pytest.approx(1.0 / np.sqrt(10.0), rel=1e-2)

    @pytest.mark.parametrize("cutoff", [0.0, 1.0, -0.2, 1.3])
    def test_invalid_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            butterworth_lowpass(np.ones(20), cutoff)


class TestCommonProperties:
    @pytest.mark.parametrize("apply", [
        lambda x: moving_average(x, 5),
        lambda x: exponential_moving_average(x, 0.35),
        lambda x: butterworth_lowpass(x, 0.25),
    ])
    def test_linearity(self, apply):
        rng = np.random.default_rng(8)
        x, y = rng.normal(0, 3, 20), rng.normal(0, 3, 20)
        a, b = 1.7, -0.6
        assert np.allclose(apply(a * x + b * y), a * apply(x) + b * apply(y), atol=1e-10)

    @pytest.mark.parametrize("apply", [
        lambda x: moving_average(x, 7),
        lambda x: exponential_moving_average(x, 0.5),
        lambda x: butterworth_lowpass(x, 0.4),
    ])
    def test_length_preserved(self, apply):
        for d in (5, 20, 33):
            assert apply(np.random.default_rng(d).normal(0, 1, d)).shape == (d,)


class TestTune:
    def setup_method(self):
        self.truth, self.noisy = synthesize_corpus(
            SyntheticSpec(n=1, noise_sigma=1.0, seed=44)
        )

    def test_identity_most_setting_on_clean_input(self):
        assert tune_batch("MA", self.truth, self.truth)[0][0] == 1
        assert tune_batch("EMA", self.truth, self.truth)[0][0] == 1.0
        assert tune_batch("Butterworth", self.truth, self.truth)[0][0] == pytest.approx(
            CUTOFF_GRID[0]
        )

    def test_argmin_contract(self):
        params, filtered, errs = tune_batch("MA", self.noisy, self.truth)
        best = np.sqrt(np.mean(
            (moving_average(self.noisy[0], int(params[0])) - self.truth[0]) ** 2))
        assert np.array_equal(filtered[0], moving_average(self.noisy[0], int(params[0])))
        assert errs[0] == pytest.approx(best, rel=1e-12)
        for order in MA_GRID:
            other = np.sqrt(np.mean(
                (moving_average(self.noisy[0], order) - self.truth[0]) ** 2))
            assert best <= other + 1e-12

    def test_ma_beats_ema_on_benchmark(self):
        # at sigma = 1.1 the centered mean wins over the causal recursion
        gt, _ = synthesize_corpus(SyntheticSpec(n=2000, noise_sigma=0, seed=3))
        noisy = gt + np.random.default_rng(4).normal(0, 1.1, gt.shape)
        _, _, e_ma = tune_batch("MA", noisy, gt)
        _, _, e_ema = tune_batch("EMA", noisy, gt)
        assert e_ma.mean() < e_ema.mean()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown filter kind"):
            tune_batch("savgol", self.noisy, self.truth)

    def test_scheme_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            tune_batch("MA", self.noisy, np.ones((1, 10)))

    @pytest.mark.parametrize("apply", [
        lambda x: moving_average(x, 3),
        lambda x: exponential_moving_average(x, 0.5),
        lambda x: butterworth_lowpass(x, 0.3),
        lambda x: tune_batch("EMA", x, x),
    ])
    @pytest.mark.parametrize("shape", [(2, 3, 20), ()])
    def test_input_must_be_one_or_two_dimensional(self, apply, shape):
        with pytest.raises(ValueError, match=r"expected a decay \(d,\) or a batch"):
            apply(np.ones(shape))

    @pytest.mark.parametrize("kind", ["MA", "EMA", "Butterworth"])
    def test_memory_bounded_by_the_batch(self, kind):
        # no candidates x decays x windows array: the peak stays a small
        # multiple of the input however many candidates the grid holds
        truth, noisy = synthesize_corpus(SyntheticSpec(n=5000, noise_sigma=1.1, seed=5))
        tracemalloc.start()
        try:
            tune_batch(kind, noisy, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * noisy.nbytes


def reference_iir(rows, b0, b1, a1):
    """The one-candidate recursion over the rows of an (n, d) matrix."""
    out = np.empty_like(rows)
    out[:, 0] = rows[:, 0]
    for j in range(1, rows.shape[1]):
        out[:, j] = b0 * rows[:, j] + b1 * rows[:, j - 1] - a1 * out[:, j - 1]
    return out


def reference_tune_batch(kind, noisy, reference):
    """Grid search one candidate at a time, stacked into a (C, n, d) cube
    whose squared differences are averaged along axis 2."""
    if kind == "MA":
        candidates = list(MA_GRID)
        outputs = np.stack([moving_average(noisy, m) for m in candidates])
    elif kind == "EMA":
        candidates = [float(a) for a in EMA_GRID]
        outputs = np.stack([reference_iir(noisy, a, 0.0, a - 1.0) for a in candidates])
    else:
        candidates = [float(w) for w in CUTOFF_GRID]
        outputs = np.stack([reference_iir(noisy, *butterworth_coeffs(w)) for w in candidates])
    errors = np.sqrt(np.mean((outputs - reference[None, :, :]) ** 2, axis=2))
    best = np.argmin(errors, axis=0)
    rows = np.arange(noisy.shape[0])
    return np.asarray(candidates)[best], outputs[best, rows], errors[best, rows]


class TestGridBits:
    """Tuning gives the bits of the one-candidate-at-a-time reference: the
    same parameters, outputs and errors, with ties and NaN rows resolved by
    the first minimum of ``argmin``."""

    def corpus(self, n=500, at=0):
        """Special rows from row ``at``."""
        truth, noisy = synthesize_corpus(SyntheticSpec(n=n, noise_sigma=1.1, seed=61))
        noisy[at] = truth[at]  # zero error for the identity-most candidate
        noisy[at + 1], truth[at + 1] = 0.0, 1.0  # every candidate outputs 0: all tie
        noisy[at + 2], truth[at + 2] = 2.0, 2.0  # a constant the filters keep
        noisy[at + 4, 7] = np.nan  # every candidate's error is NaN
        return noisy, truth

    def assert_bit_equal(self, kind, n, at):
        noisy, truth = self.corpus(n, at)
        got = tune_batch(kind, noisy, truth)
        expected = reference_tune_batch(kind, noisy, truth)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.tobytes() == e.tobytes()
        first = {"MA": MA_GRID[0], "EMA": EMA_GRID[0], "Butterworth": CUTOFF_GRID[0]}[kind]
        assert got[0][at + 1] == first  # a tie goes to the least smoothing
        assert got[2][at + 1] == 1.0
        assert got[0][at + 4] == first  # argmin of an all-NaN column is its first entry
        assert np.isnan(got[2][at + 4])

    @pytest.mark.parametrize("kind", ["MA", "EMA", "Butterworth"])
    def test_tune_batch_bit_equal(self, kind):
        self.assert_bit_equal(kind, 500, 0)

    @pytest.mark.parametrize("kind", ["MA", "EMA", "Butterworth"])
    def test_special_rows_in_a_later_block(self, kind):
        # every kind tunes 2500 rows in several blocks, the last one short (546
        # rows each for MA, 156 for EMA, 66 for Butterworth); the special rows
        # sit in a later block
        self.assert_bit_equal(kind, 2500, 2200)

    def test_single_candidate_filters_bit_equal(self):
        noisy, _ = self.corpus()
        for alpha in EMA_GRID:
            expected = reference_iir(noisy, alpha, 0.0, alpha - 1.0)
            assert exponential_moving_average(noisy, alpha).tobytes() == expected.tobytes()
            assert exponential_moving_average(noisy[3], alpha).tobytes() == expected[3].tobytes()
        for cutoff in CUTOFF_GRID:
            expected = reference_iir(noisy, *butterworth_coeffs(cutoff))
            assert butterworth_lowpass(noisy, cutoff).tobytes() == expected.tobytes()
            assert butterworth_lowpass(noisy[3], cutoff).tobytes() == expected[3].tobytes()
