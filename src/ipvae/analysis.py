"""Reconstruction metrics, Bayesian denoising, outlier scoring, S/N analysis,
density-line-chart comparison, latent interpretation, and the latent sweep.

Two misfit conventions coexist deliberately and are never interchanged:
``rmse`` divides by the window count inside the root, while ``peak_snr``
uses the raw Euclidean norm of the misfit in its dynamic-range ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import data
from . import filters as flt
from . import vae as vae_mod
from .data import average_chargeability
from .vae import TrainConfig, TrainingDivergedError, VaeModel

DEFAULT_OUTLIER_THRESHOLD = 1.0  # mV/V
DENSITY_BINS = 100
DENSITY_COVERAGE = 0.995  # central share of amplitudes spanned by the chart

BENCH_METHODS = ("none", "ip_vae", "ma", "ema", "butterworth")


@dataclass
class DenoiseResult:
    """Median reconstructions with their 95% bands, (n, d) each, and the
    per-decay quality metrics, (n,) each."""

    median: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    rmse: np.ndarray
    peak_snr: np.ndarray
    outlier: np.ndarray


@dataclass
class DensityChart:
    """Column-normalized occupancy grid: one column per window, rows are
    amplitude bins (low to high)."""

    grid: np.ndarray
    amplitude_range: tuple[float, float]
    bins: int


@dataclass
class SweepRow:
    latent_dim: int
    nll: float
    kl: float
    train_snr_db: float
    train_rmse: float
    dlc_diff: float


@dataclass
class SnrHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    inf_count: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.inf_count


def _same_shape(x, x_prime) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != x_prime.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {x_prime.shape}")
    return x, x_prime


def rmse(x, x_prime):
    """Root-mean-square misfit over the last axis, in mV/V (mean over windows
    inside the root): a scalar for one decay (d,), one value per row for an
    (n, d) matrix."""
    x, x_prime = _same_shape(x, x_prime)
    return np.sqrt(np.mean((x - x_prime) ** 2, axis=-1))


def peak_snr(x, x_prime):
    """20 log10(dynamic range / raw misfit norm) over the last axis, in dB:
    a scalar for one decay (d,), one value per row for an (n, d) matrix.

    Gives +inf where the misfit is exactly zero; raises on a constant x,
    whose dynamic range is undefined for this ratio.
    """
    x, x_prime = _same_shape(x, x_prime)
    data_range = np.max(x, axis=-1) - np.min(x, axis=-1)
    if np.any(data_range == 0.0):
        raise ValueError("peak S/N is undefined for a constant input (zero range)")
    misfit = np.linalg.norm(x - x_prime, axis=-1)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(data_range / misfit)


def check_threshold(threshold: float) -> None:
    """Reject a non-finite outlier threshold."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def sorted_quantiles(s: np.ndarray, qs: tuple[float, ...]) -> list[np.ndarray]:
    """``np.quantile(s, q, axis=-1)`` for each q in [0, 1), bit for bit, from
    ``s`` already sorted along its last axis of length R >= 2.

    Reproduces numpy's default ``linear`` rule: virtual index q·(R−1), its
    floor and fractional part gamma, numpy's two-branch ``_lerp``, and NaN
    wherever a slice holds one (NaN sorts last).
    """
    r = s.shape[-1]
    last = s[..., -1]
    nan = np.isnan(last)
    out = []
    for q in qs:
        virtual = (r - 1) * q
        below = math.floor(virtual)
        gamma = virtual - below
        a, b = s[..., below], s[..., below + 1]
        diff = b - a
        res = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
        np.copyto(res, last, where=nan)
        out.append(res)
    return out


# Multiply-adds of the largest decoder product of one decode block. OpenBLAS
# runs a gemm with m*n*k <= 65 536 * 4 on the calling thread, so a block of
# this size never starts BLAS threads, which a pool worker cannot use.
_BLOCK_MULTIPLY_ADDS = 2**18
# Samples (rows x realizations) from which denoise_matrix decodes in a
# process pool; bench's 2k-row sweep calls at R=100 stay below it. A range
# of a pool holds at most half of it, so a pooled call has two or more.
_POOL_MIN_SAMPLES = 2**18


def _block_rows(model: VaeModel, n_realizations: int) -> int:
    """Rows per decode block: all realizations of the block's rows pass the
    decoder's widest layer in at most _BLOCK_MULTIPLY_ADDS multiply-adds."""
    widest = max(layer.in_dim * layer.out_dim for layer in model.decoder.layers)
    return max(1, _BLOCK_MULTIPLY_ADDS // (n_realizations * widest))


def _denoise_rows(shared, rows: slice) -> None:
    """Write the 0.025, 0.5 and 0.975 quantiles of the rows ``rows`` into
    the (3, n, d) output, decoding block by block."""
    model, mu, sigma, eps, block, out = shared
    r = eps.shape[0]
    for start in range(rows.start, rows.stop, block):
        block_rows = slice(start, min(start + block, rows.stop))
        z = mu[block_rows] + eps[:, block_rows] * sigma[block_rows]
        recs = vae_mod.decode(model, z.reshape(-1, z.shape[-1]))
        recs = recs.reshape(r, -1, model.input_dim).transpose(1, 2, 0).copy()
        recs.sort(axis=-1)
        for q, values in zip(out, sorted_quantiles(recs, (0.025, 0.5, 0.975))):
            q[block_rows] = values


def denoise_matrix(
    model: VaeModel,
    values: np.ndarray,
    n_realizations: int = 100,
    rng: np.random.Generator | int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior-sampled reconstructions of each row of (n, d) ``values``.

    Returns (median, ci_low, ci_high) per-window empirical 0.5/0.025/0.975
    quantiles over ``n_realizations`` encode-sample-decode passes.

    The rows are encoded and the (R, n, K) noise is drawn here, in one call,
    which reads the same stream as R draws of (n, K). Rows are then decoded
    in blocks sized from the model: all R samples of a block's rows pass
    the decoder's widest layer in at most 2^18 multiply-adds (8 rows for
    the default model at R=100), which OpenBLAS runs on the calling thread.
    Memory is the noise draws plus the outputs, never all R·n·d
    reconstructions. From 2^18 samples (n·R) on, the blocks are decoded on
    every usable core by a ``fork`` pool of worker processes, each taking
    contiguous ranges of whole blocks. Results depend neither on the block
    size nor on the pool.
    """
    if n_realizations < 2:
        raise ValueError(f"n_realizations must be >= 2, got {n_realizations}")
    rng = np.random.default_rng(rng)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n, d = values.shape
    mu, sigma = vae_mod.encode(model, values)
    eps = rng.standard_normal((n_realizations, *mu.shape))
    block = _block_rows(model, n_realizations)
    max_rows = max(block, _POOL_MIN_SAMPLES // (2 * n_realizations))
    out = data._shared_empty((3, n, d))
    with data._map_rows(_denoise_rows, (model, mu, sigma, eps, block, out), n, max_rows,
                        unit=block, pooled=n * n_realizations >= _POOL_MIN_SAMPLES,
                        ) as done:
        for _ in done:
            pass
    lo, med, hi = out
    return med, lo, hi


def denoise_all(
    model: VaeModel,
    values: np.ndarray,
    n_realizations: int = 100,
    threshold: float = DEFAULT_OUTLIER_THRESHOLD,
    rng: np.random.Generator | int = 0,
) -> DenoiseResult:
    """Bayesian denoising of each row of (n, d) ``values`` with
    reconstruction uncertainty.

    The outlier flag is the reconstruction-RMSE rule: inputs farther than
    ``threshold`` (mV/V) from their median reconstruction are flagged.
    """
    check_threshold(threshold)
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    med, lo, hi = denoise_matrix(model, values, n_realizations, rng)
    errs = rmse(values, med)
    return DenoiseResult(
        median=med,
        ci_low=lo,
        ci_high=hi,
        rmse=errs,
        peak_snr=peak_snr(values, med),
        outlier=errs > threshold,
    )


def survey_snr_histogram(
    values: np.ndarray,
    model: VaeModel,
    bin_width_db: float = 1.0,
    n_realizations: int = 100,
    rng: np.random.Generator | int = 0,
) -> SnrHistogram:
    """Histogram of per-decay reconstruction peak S/N across a survey.

    Finite values are binned on a grid aligned to multiples of the bin
    width; perfect reconstructions (infinite S/N) are counted separately so
    the histogram total still equals the survey size.
    """
    if len(values) == 0:
        raise ValueError("empty decay set")
    if bin_width_db <= 0:
        raise ValueError(f"bin_width_db must be > 0, got {bin_width_db}")
    snrs = denoise_all(model, values, n_realizations=n_realizations, rng=rng).peak_snr
    finite = snrs[np.isfinite(snrs)]
    inf_count = int(np.sum(~np.isfinite(snrs)))
    if finite.size == 0:
        edges = np.array([0.0, bin_width_db])
        counts = np.zeros(1, dtype=int)
    else:
        lo = math.floor(finite.min() / bin_width_db) * bin_width_db
        hi = math.ceil(finite.max() / bin_width_db) * bin_width_db
        if hi <= lo:
            hi = lo + bin_width_db
        nbins = int(round((hi - lo) / bin_width_db))
        edges = lo + bin_width_db * np.arange(nbins + 1)
        counts, _ = np.histogram(finite, bins=edges)
    return SnrHistogram(bin_edges=edges, counts=counts, inf_count=inf_count)


def density_range(values: np.ndarray, coverage: float = DENSITY_COVERAGE) -> tuple[float, float]:
    """Central-coverage amplitude range of a population, for chart axes."""
    tail = 100.0 * (1.0 - coverage) / 2.0
    lo, hi = np.percentile(values, (tail, 100.0 - tail))
    if hi <= lo:
        hi = lo + 1.0
    return float(lo), float(hi)


def density_chart(
    values: np.ndarray,
    bins: int = DENSITY_BINS,
    amplitude_range: tuple[float, float] | None = None,
) -> DensityChart:
    """Discretize a decay population into a (bins, d) occupancy grid.

    Out-of-range amplitudes are clipped into the edge bins so every column
    of a non-empty population sums to exactly 1.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if amplitude_range is None:
        amplitude_range = density_range(values)
    lo, hi = amplitude_range
    if not hi > lo:
        raise ValueError(f"amplitude_range must satisfy lo < hi, got ({lo}, {hi})")
    n, d = values.shape
    idx = np.clip(((values - lo) / (hi - lo) * bins).astype(int), 0, bins - 1)
    grid = np.zeros((bins, d))
    for j in range(d):
        grid[:, j] = np.bincount(idx[:, j], minlength=bins)
    grid /= n
    return DensityChart(grid=grid, amplitude_range=(float(lo), float(hi)), bins=bins)


def dlc_difference(a: DensityChart, b: DensityChart) -> float:
    """Mean absolute cell difference between two density line charts."""
    if a.grid.shape != b.grid.shape:
        raise ValueError(f"chart shapes differ: {a.grid.shape} vs {b.grid.shape}")
    if not np.allclose(a.amplitude_range, b.amplitude_range):
        raise ValueError(
            f"chart ranges differ: {a.amplitude_range} vs {b.amplitude_range}"
        )
    return float(np.mean(np.abs(a.grid - b.grid)))


def latent_chargeability_correlation(mu: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pearson r between each latent mean coordinate and the average
    chargeability, across the rows of an (n, d) corpus; ``mu`` is the (n, K)
    latent mean of those rows (the first result of ``vae.encode``)."""
    if len(values) < 3:
        raise ValueError("need at least 3 decays for a correlation")
    if mu.ndim != 2 or len(mu) != len(values):
        raise ValueError(f"latent means of shape {mu.shape} for {len(values)} decays")
    m_bar = average_chargeability(values)
    if np.std(m_bar) == 0.0:
        raise ValueError("average chargeability has zero variance")
    out = np.empty(mu.shape[1])
    for k in range(mu.shape[1]):
        if np.std(mu[:, k]) == 0.0:
            raise ValueError(f"latent coordinate {k} has zero variance")
        out[k] = np.corrcoef(mu[:, k], m_bar)[0, 1]
    return out


def loss_at_convergence(curve: np.ndarray, window: int = 1000) -> tuple[float, float, float]:
    """Mean (total, nll, kl) over the final ``window`` rows of a (steps, 3)
    loss curve.

    Each column is averaged on its own: numpy sums a 1-D slice pairwise, but
    an axis-0 reduction of the 2-D tail row by row, which rounds differently.
    """
    tail = curve[-min(window, len(curve)):]
    return tuple(float(tail[:, j].mean()) for j in range(3))


def latent_sweep(
    values: np.ndarray,
    ks: tuple[int, ...] = (1, 2, 4, 6),
    config: TrainConfig | None = None,
    n_realizations: int = 100,
) -> tuple[list[SweepRow], list[VaeModel]]:
    """Train one model per latent width on the (n, d) corpus ``values``,
    with shared seed/config, and compare; returns the rows and the models.

    Each row reports the converged loss terms, the training-set mean peak
    S/N and RMSE of the median reconstructions, and the density-chart
    difference between a fresh prior-sampled population (same size as the
    corpus) and the corpus itself. A divergence names the width in its
    message.
    """
    if config is None:
        config = TrainConfig(seed=0)
    if values.shape[0] == 0:
        raise ValueError("corpus must be non-empty")
    corpus_range = density_range(values)
    corpus_chart = density_chart(values, amplitude_range=corpus_range)
    rows: list[SweepRow] = []
    models: list[VaeModel] = []
    for k in ks:
        try:
            model, curve = vae_mod.train_new(values, replace(config, latent_dim=k))
        except TrainingDivergedError as exc:
            exc.args = (f"K={k}: {exc}",)
            raise
        _, nll, kl = loss_at_convergence(curve)
        res = denoise_all(model, values, n_realizations=n_realizations, rng=config.seed)
        snrs = res.peak_snr
        generated = vae_mod.sample_matrix(
            model, values.shape[0], sigma_scale=1.0, rng=config.seed + 1
        )
        gen_chart = density_chart(generated, amplitude_range=corpus_range)
        rows.append(
            SweepRow(
                latent_dim=k,
                nll=nll,
                kl=kl,
                train_snr_db=float(np.mean(snrs[np.isfinite(snrs)])),
                train_rmse=float(np.mean(res.rmse)),
                dlc_diff=dlc_difference(gen_chart, corpus_chart),
            )
        )
        models.append(model)
    return rows, models


def denoising_benchmark(
    model: VaeModel,
    n: int,
    sigmas: tuple[float, ...],
    seed: int,
    n_realizations: int = 100,
) -> dict[float, dict[str, tuple[float, float]]]:
    """Denoising comparison on model-generated ground truth.

    Ground truth is a prior-sampled population (the trained model's own
    data space); each noise level contaminates it with white Gaussian
    noise, every method denoises the noisy copy, and per-decay RMSE against
    the ground truth is summarized as (mean, std) per method. Baseline
    filters are tuned per decay against the ground truth, the strongest
    possible baseline setting. One unit-noise draw is shared across noise
    levels (scaled by sigma) so the sweep traces smooth curves.
    """
    rng = np.random.default_rng(seed)
    truth = vae_mod.sample_matrix(model, n, sigma_scale=1.0, rng=rng)
    unit_noise = rng.standard_normal(truth.shape)
    out: dict[float, dict[str, tuple[float, float]]] = {}
    for sigma in sigmas:
        noisy = truth + sigma * unit_noise
        med, _, _ = denoise_matrix(
            model, noisy, n_realizations=n_realizations, rng=rng
        )
        per_method = {
            "none": rmse(noisy, truth),
            "ip_vae": rmse(med, truth),
        }
        for name, kind in (("ma", "MA"), ("ema", "EMA"), ("butterworth", "Butterworth")):
            _, _, errs = flt.tune_batch(kind, noisy, truth)
            per_method[name] = errs
        out[float(sigma)] = {
            name: (float(np.mean(errs)), float(np.std(errs)))
            for name, errs in per_method.items()
        }
    return out


def fitted_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
