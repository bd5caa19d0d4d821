"""Baseline denoisers: moving average, exponential moving average, Butterworth.

All three act on one decay (or a batch of decays) and preserve length and
constant sequences. ``tune_batch`` grid-searches each filter's
hyperparameter per decay against a reference curve, every candidate at
once over blocks of decays, breaking ties toward less smoothing.
"""

from __future__ import annotations

import numpy as np

MA_GRID = (1, 3, 5, 7, 9, 11)
EMA_GRID = np.linspace(1.0, 0.0, 21)  # preference order: identity first
CUTOFF_GRID = np.linspace(0.98, 0.02, 49)
# Values in one tuning block's (candidates, rows, windows) cube: 0.5 MB, 66
# rows for Butterworth's 49 cutoffs at 20 windows. A block's arrays are freed
# when it ends. With cubes of 2^17 values the allocator gave them back to the
# OS after most blocks, and the page faults that followed made the tuning in
# `bench` 1.3 times slower (0.73 against 0.55 s on one core).
_CUBE_VALUES = 2**16


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
    the least smoothing because the grid lists candidates in that order.

    The batch is scored in blocks whose (C, rows, d) cube holds at most 2^16
    values (0.5 MB; 66 decays for Butterworth's 49 cutoffs at 20 windows).
    Every candidate filters a block at once: the recursive filters in one
    pass over the windows of C window-major copies of the block, side by
    side, MA once per order. Each decay's winner is the ``argmin`` of its C
    errors, so the first minimum wins, or the first NaN where a decay has
    one, and its output is taken from the cube. Memory is O(n·d) whatever
    the number of candidates.
    """
    noisy, _ = _as_rows(noisy)
    reference, _ = _as_rows(reference)
    if noisy.shape != reference.shape:
        raise ValueError("noisy and reference must share shape")
    if kind == "MA":
        candidates = np.asarray(MA_GRID)
    elif kind == "EMA":
        candidates, coeffs = EMA_GRID, [(a, 0.0, a - 1.0) for a in EMA_GRID]
    elif kind == "Butterworth":
        candidates, coeffs = CUTOFF_GRID, [butterworth_coeffs(w) for w in CUTOFF_GRID]
    else:
        raise ValueError(f"unknown filter kind {kind!r}")

    def tuned(noisy, reference):  # one block's parameters, outputs and errors
        if kind == "MA":
            cube = np.stack([moving_average(noisy, m) for m in MA_GRID])
        else:  # C window-major copies of the block side by side, one per candidate
            xt = np.tile(noisy.T, len(coeffs))
            columns = np.repeat(np.array(coeffs).T, len(noisy), axis=1)
            windows = _recursion(xt, *columns).reshape(-1, len(coeffs), len(noisy))
            cube = windows.transpose(1, 2, 0)
        # in C order each row's windows are summed as in a contiguous (n, d) batch
        diff = np.subtract(cube, reference, order="C")
        errs = np.sqrt(np.square(diff, out=diff).mean(axis=2))
        best, each = np.argmin(errs, axis=0), np.arange(len(noisy))
        return candidates[best], cube[best, each], errs[best, each]

    params, errors = np.empty(len(noisy), candidates.dtype), np.empty(len(noisy))
    outputs = np.empty_like(noisy)
    block = max(1, _CUBE_VALUES // (len(candidates) * noisy.shape[1]))
    for start in range(0, len(noisy), block):
        rows = slice(start, start + block)
        params[rows], outputs[rows], errors[rows] = tuned(noisy[rows], reference[rows])
    return params, outputs, errors
