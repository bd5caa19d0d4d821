"""Baseline denoisers: moving average, exponential moving average, Butterworth.

All three act on one decay (or a batch of decays) and preserve length and
constant sequences. ``tune_batch`` grid-searches each filter's
hyperparameter per decay against a reference curve, breaking ties toward
less smoothing.
"""

from __future__ import annotations

import numpy as np

MA_GRID = (1, 3, 5, 7, 9, 11)
EMA_GRID = np.linspace(1.0, 0.0, 21)  # preference order: identity first
CUTOFF_GRID = np.linspace(0.98, 0.02, 49)


def _as_rows(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    return np.atleast_2d(x), single


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


def _first_order_iir(rows: np.ndarray, b0, b1, a1) -> np.ndarray:
    """Causal first-order recursion y[j] = b0 x[j] + b1 x[j-1] - a1 y[j-1]
    of each row of (n, d) ``rows``, with the state seeded by the first
    sample: y[0] = x[0]. The coefficients are (C,) vectors, one entry per
    candidate filter; the result is window-major, (d, C, n), so one pass
    over the windows filters every row with every candidate."""
    x = np.ascontiguousarray(rows.T)
    b0, b1, a1 = (np.asarray(c, dtype=np.float64)[:, None] for c in (b0, b1, a1))
    out = np.empty((x.shape[0], len(b0), x.shape[1]))
    out[0] = x[0]
    term = np.empty(out.shape[1:])
    for j in range(1, x.shape[0]):
        np.multiply(b0, x[j], out=out[j])
        np.multiply(b1, x[j - 1], out=term)
        out[j] += term
        np.multiply(a1, out[j - 1], out=term)
        out[j] -= term
    return out


def _one_filter(x, b0: float, b1: float, a1: float) -> np.ndarray:
    """One first-order filter applied to a decay (d,) or each row of (n, d)."""
    rows, single = _as_rows(x)
    out = np.ascontiguousarray(_first_order_iir(rows, [b0], [b1], [a1])[:, 0].T)
    return out[0] if single else out


def exponential_moving_average(x, alpha: float) -> np.ndarray:
    """First-order recursive smoother; alpha=1 is the identity, alpha=0
    holds the first value."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _one_filter(x, alpha, 0.0, alpha - 1.0)


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
    return _one_filter(x, *butterworth_coeffs(cutoff))


def _grid_outputs(kind: str, rows: np.ndarray) -> tuple[list, np.ndarray]:
    """Filter outputs for every grid candidate, candidates in preference
    order (least smoothing first), window-major: (d, C, n)."""
    if kind == "MA":
        candidates = list(MA_GRID)
        outputs = np.empty((rows.shape[1], len(candidates), rows.shape[0]))
        for c, m in enumerate(candidates):
            outputs[:, c] = moving_average(rows, m).T
    elif kind == "EMA":
        candidates = [float(a) for a in EMA_GRID]
        outputs = _first_order_iir(
            rows, candidates, [0.0] * len(candidates), [a - 1.0 for a in candidates]
        )
    elif kind == "Butterworth":
        candidates = [float(w) for w in CUTOFF_GRID]
        outputs = _first_order_iir(rows, *zip(*map(butterworth_coeffs, candidates)))
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    return candidates, outputs


def tune_batch(
    kind: str, noisy: np.ndarray, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-decay grid search of one filter family.

    Returns (best hyperparameter per decay, filtered output per decay,
    RMSE per decay against the reference). Ties go to the candidate with
    the least smoothing because candidates are evaluated in that order.

    The outputs of all C candidates fill one window-major (d, C, n) array,
    the recursive filters' in a single pass over the windows. Each
    candidate's errors are taken on its own (n, d) copy, so no (C, n, d)
    difference is ever held.
    """
    noisy = np.atleast_2d(np.asarray(noisy, dtype=np.float64))
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    if noisy.shape != reference.shape:
        raise ValueError("noisy and reference must share shape")
    candidates, outputs = _grid_outputs(kind, noisy)
    errors = np.empty((len(candidates), noisy.shape[0]))
    for c in range(len(candidates)):
        diff = outputs[:, c].T.copy()
        diff -= reference
        np.square(diff, out=diff)
        np.sqrt(diff.mean(axis=1), out=errors[c])
    best = np.argmin(errors, axis=0)  # first minimum = preferred candidate
    rows = np.arange(noisy.shape[0])
    params = np.asarray(candidates)[best]
    return params, outputs[:, best, rows].T, errors[best, rows]
