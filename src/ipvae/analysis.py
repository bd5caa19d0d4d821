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


# The most bins an S/N histogram may span, checked before its edges are
# made: its edges and counts take 0.8 MB each (8 bytes a bin), and
# report's snr_histogram.csv one row a bin
_MAX_SNR_BINS = 100_000


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
    misfit = np.linalg.norm(x - x_prime, axis=-1)
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(data_range(x) / misfit)


def data_range(x) -> np.ndarray:
    """max - min over the last axis, which the peak S/N needs to be > 0."""
    spread = np.max(x, axis=-1) - np.min(x, axis=-1)
    if np.any(spread == 0.0):
        raise ValueError("peak S/N is undefined for a constant input (zero range)")
    return spread


def check_threshold(threshold: float) -> None:
    """Reject a non-finite or negative outlier threshold: RMSE is >= 0, so a
    negative one would flag every decay."""
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")


def check_realizations(n_realizations: int) -> None:
    """Reject fewer than two realizations: a band needs two draws."""
    if n_realizations < 2:
        raise ValueError(f"n_realizations must be >= 2, got {n_realizations}")


def _linear_rule(count: int, q: float) -> tuple[int, int, float]:
    """Where numpy's default ``linear`` rule takes quantile q of ``count``
    sorted values: the ranks of the two values it interpolates between and
    the weight gamma of the second. The virtual index q·(count − 1) splits
    into its floor and fractional part; from the last rank on, numpy takes
    the last value twice, at index −1, so gamma is the virtual index + 1."""
    virtual = (count - 1) * q
    if virtual >= count - 1:
        return count - 1, count - 1, virtual + 1
    below = math.floor(virtual)
    return below, below + 1, virtual - below


def _lerp(a, b, gamma: float):
    """numpy's two-branch ``_lerp`` from a to b at gamma, which rounds
    differently on each side of 0.5."""
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


def _quantile_ranks(count: int, qs: tuple[float, ...]) -> list[int]:
    """The ranks of ``count`` sorted values that the quantiles ``qs`` read
    (see :func:`_linear_rule`), and the last rank, where a NaN sorts;
    ascending and distinct."""
    return sorted({rank for q in qs for rank in _linear_rule(count, q)[:2]} | {count - 1})


def _ranked_quantiles(picked: np.ndarray, count: int, qs: tuple[float, ...],
                      ranks: list[int]) -> list[np.ndarray]:
    """``np.quantile(s, q, axis=-1)`` for each q in ``qs``, bit for bit,
    from ``picked``, the values at the :func:`_quantile_ranks` ``ranks`` of
    ``s``, ``count`` values sorted along its last axis: numpy's ``linear``
    rule (see :func:`_linear_rule`), its ``_lerp``, and NaN wherever a slice
    holds one (NaN sorts last)."""
    last = picked[..., -1]
    nan = np.isnan(last)
    out = []
    for q in qs:
        i, j, gamma = _linear_rule(count, q)
        res = _lerp(picked[..., ranks.index(i)], picked[..., ranks.index(j)], gamma)
        np.copyto(res, last, where=nan)
        out.append(res)
    return out


# Samples (rows x realizations, over every level of one call) from which
# the denoising groups are decoded in a process pool: a 2k-row denoise at
# R=100 stays below it, bench's 7-level sweep (1.4M samples) does not.
_POOL_MIN_SAMPLES = 2**18
# Rows per noise group: group g holds rows 256g to 256g+255, draws their
# noise from its own stream and is decoded and finished as one task, so a
# row's noise and result depend on neither the pool nor the rows after it.
_NOISE_ROWS = 256


# The quantiles each decay's reconstructions are reduced to: its median and
# the ends of its 95% band
_BAND = (0.5, 0.025, 0.975)


class _Workspace:
    """The buffers a process decodes every block of one denoising call in,
    built on the first group it decodes: for a block of ``rows`` rows of R
    samples each, its noise (then its latent draws), the rows' posterior
    means and scales repeated R times, each decoder layer's output and its
    bias repeated down the block's samples, and the transposed
    reconstructions; and for a group of up to ``group_rows`` rows, the
    values at its quantile ranks."""

    def __init__(self, model: VaeModel, realizations: int, rows: int, group_rows: int):
        shape = (rows, realizations, model.latent_dim)
        self.z, self.mu, self.sigma = (np.empty(shape) for _ in range(3))
        samples = rows * realizations
        self.outputs = [np.empty((samples, len(b))) for _, b in model.decoder.layers]
        self.biases = [np.tile(b, (samples, 1)) for _, b in model.decoder.layers]
        self.sorted = np.empty((rows, model.input_dim, realizations))
        self.ranks = _quantile_ranks(realizations, _BAND)
        self.picked = np.empty((group_rows, model.input_dim, len(self.ranks)))


def _denoise_rows(shared, rows: slice):
    """``finish(rows, median, ci_low, ci_high)`` of the noise group ``rows``,
    whose 0.5, 0.025 and 0.975 quantiles, (c, d) each, are decoded block by
    block. The rows of ``mu`` are levels of n rows, stacked; the group's
    noise stream is keyed by its place in its level, under the level's
    root.

    Each block is decoded in this process's :class:`_Workspace` of the call
    and sorted in standardized units; only the values at the quantiles'
    ranks are kept, and unstandardized once per group. ``x·scale + offset``
    is monotone in IEEE arithmetic for a scale > 0, so these are the order
    statistics of the unstandardized values, bit for bit.
    """
    model, mu, sigma, n, realizations, roots, block, finish, workspace = shared
    level, offset = divmod(rows.start, n)
    rng = np.random.default_rng(
        np.random.SeedSequence(roots[level], spawn_key=(offset // _NOISE_ROWS,)))
    if not workspace:
        workspace.append(_Workspace(model, realizations, min(block, n, _NOISE_ROWS),
                                    min(n, _NOISE_ROWS)))
    ws = workspace[0]
    picked = ws.picked[:rows.stop - rows.start]
    for start in range(0, len(picked), block):
        m = min(block, len(picked) - start)
        own = slice(rows.start + start, rows.start + start + m)
        z = ws.z[:m]
        rng.standard_normal(out=z)
        np.copyto(ws.mu[:m], mu[own, None])
        np.copyto(ws.sigma[:m], sigma[own, None])
        np.multiply(z, ws.sigma[:m], out=z)
        np.add(z, ws.mu[:m], out=z)
        recs = model.decoder.forward_into(z.reshape(-1, z.shape[-1]), ws.outputs, ws.biases)
        s = ws.sorted[:m]
        np.copyto(s, recs.reshape(m, realizations, -1).transpose(0, 2, 1))
        s.sort(axis=-1)
        np.take(s, ws.ranks, axis=-1, out=picked[start:start + m], mode="clip")
    picked *= model.input_scale
    picked += model.input_offset
    return finish(rows, *_ranked_quantiles(picked, realizations, _BAND, ws.ranks))


def denoise_matrix(model: VaeModel, levels: np.ndarray, n_realizations: int,
                   rng: np.random.Generator | int, finish) -> tuple[np.ndarray, ...]:
    """Posterior-sampled reconstructions of every decay of the (L, n, d)
    stack ``levels``: L surveys of n decays each, one level for a single
    survey (``values[None]``).

    Each decay's per-window empirical 0.5/0.025/0.975 quantiles over
    ``n_realizations`` encode-sample-decode passes go to ``finish(rows,
    median, ci_low, ci_high)``, (c, d) each, run where the noise group
    ``rows`` is decoded. ``rows`` counts level l's decay i as l·n + i.
    ``finish`` returns a tuple of arrays whose first axis is the group's c
    rows; the call returns one (L·n, ...) array per part, each group's
    part at its ``rows``, allocated when the first group's result arrives.
    For n = 0, ``finish`` runs once here, on ``slice(0, 0)`` and three
    (0, d) quantiles, and its result is returned.

    ``rng`` gives one root entropy per level, ``rng.integers(2**63,
    size=(L, 2))``, for any n and R; for one level this is the draw of
    ``size=2``. Each level's rows are cut into groups of 256 from its
    first row; its group g draws its ``(rows, R, K)`` noise, row-major,
    from ``default_rng(SeedSequence(root, spawn_key=(g,)))`` under the
    level's root. So a call on L levels gives each level the bits of a
    call on that level alone, the first m rows of a level get the noise of
    a call on those m rows alone, and results depend neither on the block
    size nor on the pool.

    Each level is encoded here on its own, in :func:`vae.encode`'s blocks,
    straight into the stack's posterior arrays.
    Each group is one task, decoded in blocks whose R samples pass the
    decoder's widest layer in at most 2^18 multiply-adds (8 rows for the
    default model at R=100), which OpenBLAS runs on the calling thread; a
    block's noise is drawn as it is decoded, so memory does not grow with
    R. From 2^18 samples (L·n·R) on, a ``fork`` pool decodes the groups on
    every usable core; only ``finish``'s results come back.
    """
    check_realizations(n_realizations)
    if levels.ndim != 3:
        raise ValueError(f"levels must be an (L, n, d) stack, got shape {levels.shape}")
    if not 0.0 < model.input_scale < math.inf:  # see _denoise_rows
        raise ValueError(f"model input_scale must be finite and > 0, got {model.input_scale}")
    n_levels, n, d = levels.shape
    roots = np.random.default_rng(rng).integers(2**63, size=(n_levels, 2))
    mu, sigma = (np.empty((n_levels, n, model.latent_dim)) for _ in range(2))
    for level, values in enumerate(levels):
        vae_mod._encode_into(model, values, mu[level], sigma[level])
    if n == 0:  # no group gives the results' shapes
        return finish(slice(0, 0), *(np.empty((0, d)) for _ in range(3)))
    ranges = [slice(level * n + start, level * n + min(start + _NOISE_ROWS, n))
              for level in range(n_levels) for start in range(0, n, _NOISE_ROWS)]
    block = vae_mod._block_rows(model.decoder.layers, n_realizations)
    shared = (model, mu.reshape(-1, model.latent_dim), sigma.reshape(-1, model.latent_dim),
              n, n_realizations, roots, block, finish, [])  # [] holds the _Workspace
    pooled = n_levels * n * n_realizations >= _POOL_MIN_SAMPLES
    out = None
    with data._map_rows(_denoise_rows, shared, ranges, pooled) as done:
        for rows, result in zip(ranges, done):
            if out is None:
                out = tuple(np.empty((n_levels * n, *part.shape[1:]), part.dtype)
                            for part in result)
            for whole, part in zip(out, result):
                whole[rows] = part
    return out


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
    data_range(values)  # a constant decay is rejected before any draw

    def finish(rows, *quantiles):  # each group's metrics, computed in the pool
        return *quantiles, rmse(values[rows], quantiles[0]), peak_snr(values[rows], quantiles[0])
    med, lo, hi, errs, snrs = denoise_matrix(model, values[None], n_realizations, rng, finish)
    return DenoiseResult(med, lo, hi, errs, snrs, errs > threshold)


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
    the histogram total still equals the survey size. A bin width at which
    the S/N values span ``_MAX_SNR_BINS`` bins or more is a ``ValueError``,
    raised once they are known and before any bin is made.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("empty decay set")
    if not 0 < bin_width_db < math.inf:
        raise ValueError(f"bin_width_db must be finite and > 0, got {bin_width_db}")
    data_range(values)  # a constant decay is rejected before any denoising
    snrs, = denoise_matrix(model, values[None], n_realizations, rng,
                           lambda rows, med, lo, hi: (peak_snr(values[rows], med),))
    finite = snrs[np.isfinite(snrs)]
    inf_count = int(np.sum(~np.isfinite(snrs)))
    if finite.size == 0:
        edges = np.array([0.0, bin_width_db])
        counts = np.zeros(1, dtype=int)
    else:
        first, last = float(finite.min()) / bin_width_db, float(finite.max()) / bin_width_db
        if not last - first < _MAX_SNR_BINS:  # also when a width too small gives inf
            raise ValueError(f"bin_width_db {bin_width_db} spans the S/N values with"
                             f" {last - first:.4g} bins, at most {_MAX_SNR_BINS}")
        lo = math.floor(first) * bin_width_db
        hi = math.ceil(last) * bin_width_db
        if hi <= lo:
            hi = lo + bin_width_db
        nbins = int(round((hi - lo) / bin_width_db))
        edges = lo + bin_width_db * np.arange(nbins + 1)
        counts, _ = np.histogram(finite, bins=edges)
    return SnrHistogram(bin_edges=edges, counts=counts, inf_count=inf_count)


# Values per row block of density_range's selection pass
_RANGE_BLOCK = 2**15


def _order_statistics(table: np.ndarray, ranks: list[int]) -> np.ndarray:
    """The values at the ascending ``ranks`` of the sorted values of the
    (n, d) ``table``, where a NaN sorts last, with no copy of the table;
    ``ranks`` holds the last rank, as :func:`_quantile_ranks` gives them.

    One pass in row blocks of ``_RANGE_BLOCK`` values keeps the smallest
    values up to the highest rank in the lower half, and the largest down
    to the lowest rank in the upper half. Each kept set is cut back to what
    it needs by an in-place ``ndarray.partition`` once the next block would
    take it past twice that plus a block, so the pass does O(n·d) work; one
    last partition orders each set at its ranks. The kept sets grow toward
    n·d values as the ranks near the middle (in :func:`density_range`, as
    the coverage falls toward 0, which no CLI caller asks for). Zeros of
    both signs compare equal, so where both meet at a rank the sign found
    may differ from ``np.percentile``'s.
    """
    n, d = table.shape
    total, rows = n * d, max(1, _RANGE_BLOCK // d)
    lower = [r for r in ranks if 2 * r < total]
    upper = [r - total for r in ranks if 2 * r >= total]  # counted from the end
    needs = [lower[-1] + 1 if lower else 0, -upper[0] if upper else 0]
    kept = [np.empty(min(total, 2 * k + rows * d)) for k in needs]
    fill = [0, 0]
    for start in range(0, n, rows):
        block = table[start:start + rows].ravel()
        for side, k in enumerate(needs):
            if fill[side] + len(block) > len(kept[side]):  # then fill > 2k
                cut = kept[side][:fill[side]]
                cut.partition(-k if side else k - 1)
                if side:
                    cut[:k] = cut[-k:]  # no overlap, as fill > 2k
                fill[side] = k
            kept[side][fill[side]:fill[side] + len(block)] = block
            fill[side] += len(block)
    picked = []
    for places, part in zip((lower, upper), (values[:m] for values, m in zip(kept, fill))):
        if places:
            part.partition(places)
            picked.append(part[places])
    return np.concatenate(picked)


def density_range(values: np.ndarray, coverage: float = DENSITY_COVERAGE) -> tuple[float, float]:
    """Central-coverage amplitude range of a population, for chart axes:
    ``np.percentile(values, (tail, 100 - tail))`` with
    ``tail = 100 (1 - coverage) / 2``, where ``hi = lo + 1`` when
    ``hi <= lo``.

    These are the exact ``linear``-rule percentiles, bit for bit, and NaN
    bounds for a population holding a NaN, by the denoising band's rule
    (:func:`_quantile_ranks`, :func:`_ranked_quantiles`), found without
    copying the corpus: only the values at the ranks it reads are selected
    (see :func:`_order_statistics`). A coverage outside [0, 1] is a
    ``ValueError``.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be in [0, 1], got {coverage}")
    tail = 100.0 * (1.0 - coverage) / 2.0
    qs = (tail / 100, (100.0 - tail) / 100)
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise ValueError("an empty population has no density range")
    table = values.reshape(len(values), -1)
    ranks = _quantile_ranks(table.size, qs)
    picked = _order_statistics(table, ranks)
    with np.errstate(invalid="ignore"):  # inf - inf, as np.percentile allows
        lo, hi = (float(q[0]) for q in _ranked_quantiles(picked[None], table.size, qs, ranks))
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


# Values per block of _add_counts: each of its temporaries is at most 64 KB
_COUNT_VALUES = 2**13


def _add_counts(counts: np.ndarray, values: np.ndarray, lo: float, hi: float) -> None:
    """Add the per-column bin counts of the (m, d) ``values`` into the
    (bins, d) ``counts``, in blocks of rows of at most ``_COUNT_VALUES``
    values, each binned with one ``bincount`` of every column's bins.
    Out-of-range amplitudes are clipped into the edge bins."""
    bins, d = counts.shape
    first_bin = np.arange(d) * bins  # of each column, in the one bincount
    rows = max(1, _COUNT_VALUES // d)
    for start in range(0, len(values), rows):
        scaled = values[start:start + rows] - lo
        scaled /= hi - lo
        scaled *= bins
        idx = scaled.astype(int)
        np.clip(idx, 0, bins - 1, out=idx)
        idx += first_bin
        counts += np.bincount(idx.ravel(), minlength=bins * d).reshape(d, bins).T


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
    counts = np.zeros((bins, values.shape[1]), np.int64)
    _add_counts(counts, values, lo, hi)
    return DensityChart(grid=counts / len(values), amplitude_range=(float(lo), float(hi)),
                        bins=bins)


def model_chart(model: VaeModel, n: int, corpus_chart: DensityChart,
                rng: np.random.Generator | int) -> DensityChart:
    """The density chart of n decays decoded from prior draws (sigma scale
    1), on ``corpus_chart``'s range and bins: the chart of
    ``vae.sample_matrix(model, n, 1.0, rng)``, bit for bit, and ``rng``
    left as that call leaves it.

    The sample is drawn and binned one :func:`vae._row_blocks` block at a
    time, one ``sample_matrix`` call each on the one generator, whose
    consecutive draws are the stream of one draw; no (n, d) sample is held.
    """
    rng = np.random.default_rng(rng)
    lo, hi = corpus_chart.amplitude_range
    counts = np.zeros((corpus_chart.bins, model.input_dim), np.int64)
    for rows in vae_mod._row_blocks(n, model.decoder.layers):
        _add_counts(counts, vae_mod.sample_matrix(
            model, rows.stop - rows.start, sigma_scale=1.0, rng=rng), lo, hi)
    return DensityChart(grid=counts / n, amplitude_range=corpus_chart.amplitude_range,
                        bins=corpus_chart.bins)


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
    m_bar = data.average_chargeability(values)
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
    corpus, see :func:`model_chart`) and the corpus itself. A divergence
    names the width in its message; a constant decay is rejected before the
    first width trains.
    """
    if config is None:
        config = TrainConfig(seed=0)
    if values.shape[0] == 0:
        raise ValueError("corpus must be non-empty")
    data_range(values)  # a constant decay is rejected before any training
    corpus_chart = density_chart(values)
    rows: list[SweepRow] = []
    models: list[VaeModel] = []

    def finish(group, med, lo, hi):
        return rmse(values[group], med), peak_snr(values[group], med)
    for k in ks:
        try:
            model, curve = vae_mod.train_new(values, replace(config, latent_dim=k))
        except TrainingDivergedError as exc:
            exc.args = (f"K={k}: {exc}",)
            raise
        _, nll, kl = loss_at_convergence(curve)
        errs, snrs = denoise_matrix(model, values[None], n_realizations, config.seed, finish)
        dlc = dlc_difference(model_chart(model, len(values), corpus_chart, config.seed + 1),
                             corpus_chart)
        rows.append(SweepRow(latent_dim=k, nll=nll, kl=kl,
                             train_snr_db=float(np.mean(snrs[np.isfinite(snrs)])),
                             train_rmse=float(np.mean(errs)), dlc_diff=dlc))
        models.append(model)
    return rows, models


def denoising_benchmark(
    model: VaeModel,
    n: int,
    sigmas: tuple[float, ...],
    seed: int,
    n_realizations: int = 100,
) -> dict[float, dict[str, tuple[float, float]]]:
    """Denoising comparison on model-generated ground truth: for each noise
    level, keyed by sigma, the (mean, std) of each method's per-decay RMSE
    against the truth.

    The truth is n >= 1 decays drawn from the model's prior (its own data
    space). One unit-noise draw, scaled by each sigma, contaminates it, so
    the sweep traces smooth curves; no sigma may repeat. The baseline
    filters are tuned per decay against the truth, the strongest possible
    baseline setting.

    The noisy levels, truth + sigma · unit noise, are held as one (L, n, d)
    stack, and the unit noise only while they are built. One
    :func:`denoise_matrix` call, whose roots are drawn after the truth and
    the unit noise, denoises them. Each 256-row noise group is scored for
    every method where it is decoded, the three filters tuned on its
    decays alone.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_realizations(n_realizations)
    if len(set(sigmas)) < len(sigmas):  # one result per level, keyed by sigma
        raise ValueError(f"noise levels must not repeat, got {tuple(sigmas)}")
    rng = np.random.default_rng(seed)
    truth = vae_mod.sample_matrix(model, n, sigma_scale=1.0, rng=rng)
    levels = np.multiply.outer(sigmas, rng.standard_normal(truth.shape))
    levels += truth

    def finish(rows, median, *_):  # every method's RMSE on one group
        level, start = divmod(rows.start, n)
        own = slice(start, start + len(median))
        noisy = levels[level, own]
        return (rmse(noisy, truth[own]), rmse(median, truth[own]),
                *(flt.tune_batch(kind, noisy, truth[own])[2]
                  for kind in ("MA", "EMA", "Butterworth")))

    errs = denoise_matrix(model, levels, n_realizations, rng, finish)
    return {
        float(s): {name: (float(np.mean(e)), float(np.std(e)))
                   for name, e in zip(BENCH_METHODS, (e[level * n:(level + 1) * n] for e in errs))}
        for level, s in enumerate(sigmas)
    }


def fitted_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
