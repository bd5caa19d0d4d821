"""Baseline denoisers: moving average, exponential moving average, Butterworth.

All three act on one decay (or a batch of decays) and preserve length and
constant sequences. ``tune_batch`` grid-searches each filter's
hyperparameter per decay against a reference curve, one candidate at a
time, breaking ties toward less smoothing.
"""

from __future__ import annotations

import numpy as np

MA_GRID = (1, 3, 5, 7, 9, 11)
EMA_GRID = np.linspace(1.0, 0.0, 21)  # preference order: identity first
CUTOFF_GRID = np.linspace(0.98, 0.02, 49)


def _as_rows(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(
            f"expected a decay (d,) or a batch of decays (n, d), got shape {x.shape}"
        )
    return np.atleast_2d(x), x.ndim == 1


def moving_average(x, order: int) -> np.ndarray:
    """Centered M-point mean with edge-replication padding."""
    rows, single = _as_rows(x)
    d = rows.shape[1]
    if order % 2 == 0 or not (1 <= order <= 2 * d - 1):
        raise ValueError(f"MA order must be odd and within [1, {2 * d - 1}], got {order}")
    if order == 1:
        out = rows.copy()
        return out[0] if single else out
    s = order // 2
    padded = np.pad(rows, ((0, 0), (s, s)), mode="edge")
    csum = np.cumsum(padded, axis=1)
    totals = np.empty_like(rows)
    totals[:, 0] = csum[:, order - 1]
    totals[:, 1:] = csum[:, order:] - csum[:, : d - 1]
    out = totals / order
    return out[0] if single else out


def _recursion(xt: np.ndarray, b0, b1, a1) -> np.ndarray:
    """Causal first-order recursion y[j] = b0 x[j] + b1 x[j-1] - a1 y[j-1]
    down each column of a window-major (d, n) batch, with the state seeded
    by the first sample: y[0] = x[0]. The coefficients are scalars or (n,)
    vectors, one entry per column. Returns the window-major (d, n) output,
    one pass over the windows filtering every decay."""
    out = np.empty_like(xt)
    out[0] = xt[0]
    term = np.empty(xt.shape[1])
    for j in range(1, xt.shape[0]):
        np.multiply(b0, xt[j], out=out[j])
        np.multiply(b1, xt[j - 1], out=term)
        out[j] += term
        np.multiply(a1, out[j - 1], out=term)
        out[j] -= term
    return out


def _first_order_iir(x, b0, b1, a1) -> np.ndarray:
    """:func:`_recursion` of a decay (d,) or each row of an (n, d) batch,
    with scalar or per-row (n,) coefficients."""
    rows, single = _as_rows(x)
    out = np.ascontiguousarray(_recursion(np.ascontiguousarray(rows.T), b0, b1, a1).T)
    return out[0] if single else out


def exponential_moving_average(x, alpha: float) -> np.ndarray:
    """First-order recursive smoother; alpha=1 is the identity, alpha=0
    holds the first value."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _first_order_iir(x, alpha, 0.0, alpha - 1.0)


def butterworth_coeffs(cutoff: float) -> tuple[float, float, float]:
    """Bilinear-transform coefficients (b0, b1, a1) of the first-order
    low-pass prototype, prewarped so the half-power point lands exactly at
    the normalized cutoff (1 = Nyquist)."""
    if not (0.0 < cutoff < 1.0):
        raise ValueError(f"cutoff must lie strictly inside (0, 1), got {cutoff}")
    k = np.tan(np.pi * cutoff / 2.0)
    b0 = k / (k + 1.0)
    a1 = (k - 1.0) / (k + 1.0)
    return b0, b0, a1


def butterworth_lowpass(x, cutoff: float) -> np.ndarray:
    """Single causal pass of the first-order low-pass Butterworth filter.

    The filter state is seeded with the first sample (as if the input had
    been constant), so constants pass through unchanged and no start-up
    transient corrupts the short sequence.
    """
    return _first_order_iir(x, *butterworth_coeffs(cutoff))


def tune_batch(
    kind: str, noisy: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-decay grid search of one filter family.

    Returns (best hyperparameter per decay, filtered output per decay,
    RMSE per decay against the reference). Ties go to the candidate with
    the least smoothing because candidates are evaluated in that order.

    Each of the C candidates filters the whole (n, d) batch in turn. Only
    each decay's best error so far and its candidate are kept: as
    ``argmin`` over all C errors would, the first minimum wins, or the
    first NaN where a decay has one. Memory is O(n·d). The recursive
    filters read one window-major copy of the batch, made once per call.
    The winners' outputs are then filtered again: by the recursive filters
    in one more pass with each decay's own coefficients, by MA once per
    winning order.
    """
    noisy, _ = _as_rows(noisy)
    reference, _ = _as_rows(reference)
    if noisy.shape != reference.shape:
        raise ValueError("noisy and reference must share shape")
    if kind == "MA":
        candidates = list(MA_GRID)
    elif kind == "EMA":
        candidates = [float(a) for a in EMA_GRID]
        coeffs = np.array([(a, 0.0, a - 1.0) for a in candidates])
    elif kind == "Butterworth":
        candidates = [float(w) for w in CUTOFF_GRID]
        coeffs = np.array([butterworth_coeffs(w) for w in candidates])
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    xt = None if kind == "MA" else np.ascontiguousarray(noisy.T)
    best, best_errors = np.zeros(len(noisy), np.intp), np.full(len(noisy), np.inf)
    for c, p in enumerate(candidates):
        if kind == "MA":
            diff = moving_average(noisy, p)
        else:
            diff = np.ascontiguousarray(_recursion(xt, *coeffs[c]).T)
        diff -= reference
        np.square(diff, out=diff)
        errors = np.sqrt(diff.mean(axis=1))
        better = (errors < best_errors) | (np.isnan(errors) & ~np.isnan(best_errors))
        best[better] = c
        best_errors[better] = errors[better]
    if kind == "MA":
        outputs = np.empty_like(noisy)
        for c in np.unique(best):
            won = best == c
            outputs[won] = moving_average(noisy[won], candidates[c])
    else:
        outputs = np.ascontiguousarray(_recursion(xt, *coeffs[best].T).T)
    return np.asarray(candidates)[best], outputs, best_errors
