"""Decay-curve data model, windowed chargeability, synthetic corpora, CSV I/O.

A time-domain IP measurement is a short sequence of chargeability values
(mV/V), one per integration window, recorded after the transmitter current
is switched off. Computations hold a corpus as an (n, d) float64 matrix, one
decay per row. This module generates synthetic corpora from a
stretched-exponential relaxation family, contaminates them with Gaussian
noise and spikes, reads/writes the ``ipvae-decays v1`` CSV format through
:class:`DecaySet`, and writes every output file atomically; every CSV row,
decay files included, is formatted by :func:`table_text`.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import cache

import numpy as np

CSV_MAGIC = "# ipvae-decays v1"
_META_COLUMNS = ("id", "vp_mv", "current_ma", "label")

# Amplitude used to scale injected spikes when the Gaussian noise level is
# zero (otherwise a zero sigma would make every spike vanish).
SPIKE_FLOOR_MV = 1.0


class DecayFormatError(ValueError):
    """Raised when a decay file violates the ipvae-decays CSV schema."""


@dataclass(frozen=True)
class WindowScheme:
    """Timing of the chargeability integration windows.

    The receiver waits ``delay_ms`` after current shut-off, then integrates
    the voltage decay in ``count`` consecutive windows of ``window_ms`` each.
    """

    delay_ms: float = 120.0
    window_ms: float = 40.0
    count: int = 20

    def __post_init__(self):
        if not 0 < self.delay_ms < math.inf:
            raise ValueError(f"delay_ms must be finite and > 0, got {self.delay_ms}")
        if not 0 < self.window_ms < math.inf:
            raise ValueError(f"window_ms must be finite and > 0, got {self.window_ms}")
        if self.count < 2:
            raise ValueError(f"window count must be >= 2, got {self.count}")

    def midpoints_s(self) -> np.ndarray:
        """Temporal midpoint of each window, in seconds after shut-off."""
        j = np.arange(self.count)
        return (self.delay_ms + (j + 0.5) * self.window_ms) / 1000.0


DEFAULT_SCHEME = WindowScheme()

# Values per block of DecaySet's finiteness check: a 64 KB bool temporary
_FINITE_CHECK_VALUES = 2**16


@dataclass
class DecaySet:
    """A non-empty set of decays on one window scheme, as a decay file holds
    them: an (n, d) matrix of chargeability values in mV/V (negative values
    allowed; low-S/N surveys produce them) plus per-row metadata.

    ``vp_mv`` (primary voltage), ``current_ma`` (transmitter current) and
    ``label`` (an external confidence score in percent) are float arrays of
    length n with NaN for an empty field; None leaves the whole column empty.
    """

    values: np.ndarray
    scheme: WindowScheme = DEFAULT_SCHEME
    vp_mv: np.ndarray | None = None
    current_ma: np.ndarray | None = None
    label: np.ndarray | None = None

    def __post_init__(self):
        # C order: reductions over the matrix must not depend on its source
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        shape = self.values.shape
        if len(shape) != 2 or shape[0] == 0 or shape[1] != self.scheme.count:
            raise ValueError(
                f"expected n >= 1 rows of {self.scheme.count} window values, got shape {shape}"
            )
        n = shape[0]
        # checked in row blocks, so the check's temporaries stay small
        block = max(1, _FINITE_CHECK_VALUES // shape[1])
        for start in range(0, n, block):
            values = self.values[start:start + block]
            if not np.isfinite(values).all():
                bad = np.argwhere(~np.isfinite(values))
                raise ValueError(f"column 'm{bad[0, 1] + 1}': non-finite window value")
        for name in _META_COLUMNS[1:]:
            column = getattr(self, name)
            column = np.full(n, np.nan) if column is None else np.asarray(column, float)
            if column.shape != (n,):
                raise ValueError(f"{name} must hold {n} values, got shape {column.shape}")
            setattr(self, name, column)
        bad = self.vp_mv <= 0
        if np.any(bad):
            raise ValueError(f"vp_mv must be > 0 when present, got {self.vp_mv[bad][0]}")
        bad = (self.label < 0.0) | (self.label > 100.0)
        if np.any(bad):
            raise ValueError(f"label must lie in [0, 100], got {self.label[bad][0]}")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class SyntheticSpec:
    """Parameters of a synthetic decay corpus.

    Ground-truth decays follow m0 * exp(-(t/tau)^c) sampled at window
    midpoints, with (m0, tau, c) drawn uniformly from the given ranges.
    Contamination adds white Gaussian noise of ``noise_sigma`` and, with
    probability ``spike_prob`` per decay, one single-window spike.
    """

    n: int
    m0_range: tuple[float, float] = (1.0, 50.0)
    tau_range: tuple[float, float] = (0.1, 1.0)
    c_range: tuple[float, float] = (0.5, 1.0)
    noise_sigma: float = 1.1
    spike_prob: float = 0.0
    seed: int = 0
    scheme: WindowScheme = field(default_factory=WindowScheme)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"corpus size must be >= 1, got {self.n}")
        for name, (lo, hi) in (
            ("m0_range", self.m0_range),
            ("tau_range", self.tau_range),
            ("c_range", self.c_range),
        ):
            if not (0 < lo <= hi < math.inf):
                raise ValueError(
                    f"{name} must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})"
                )
        if self.c_range[1] > 1.0:
            raise ValueError(f"c_range upper bound must be <= 1, got {self.c_range[1]}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}"
            )
        if not (0.0 <= self.spike_prob <= 1.0):
            raise ValueError(f"spike_prob must lie in [0, 1], got {self.spike_prob}")


def average_chargeability(values: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the window values, in mV/V: a scalar for one
    decay (d,), one value per row for an (n, d) matrix."""
    return np.mean(values, axis=-1)


# Rows per block of synthesis. The truth is computed in place in its
# matrix, and a block of noise is one temporary (160 KB for 20 windows), so
# generating and contaminating a corpus holds one (n, d) matrix, not two.
_SYNTH_ROWS = 1024


def generate_ground_truth(spec: SyntheticSpec) -> np.ndarray:
    """Draw a noise-free (n, d) corpus of stretched-exponential decays.

    Parameter draw order is fixed (m0 vector, then tau, then c) so that a
    given (spec, seed) always produces the same corpus. The decays are
    computed in blocks of rows into the returned matrix; each value is the
    same elementwise formula as over the whole corpus at once.
    """
    rng = np.random.default_rng(spec.seed)
    m0 = rng.uniform(*spec.m0_range, spec.n)
    tau = rng.uniform(*spec.tau_range, spec.n)
    c = rng.uniform(*spec.c_range, spec.n)
    t = spec.scheme.midpoints_s()
    out = np.empty((spec.n, spec.scheme.count))
    for rows in _split_rows(spec.n, _SYNTH_ROWS):
        # m0 * exp(-((t / tau) ** c)), one operation at a time in place
        block = out[rows]
        np.divide(t[None, :], tau[rows, None], out=block)
        np.power(block, c[rows, None], out=block)
        np.negative(block, out=block)
        np.exp(block, out=block)
        np.multiply(m0[rows, None], block, out=block)
    return out


def _add_contamination(values: np.ndarray, noise_sigma: float, spike_prob: float,
                       seed: int) -> None:
    """Add :func:`contaminate`'s noise and spikes to the float64 (n, d)
    matrix ``values`` in place.

    The (n, d) noise is drawn in blocks of rows, each added before the next
    is drawn: successive draws continue one stream, so the blocks hold the
    values of one (n, d) draw. The spike draws follow it, n values each.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not (0.0 <= spike_prob <= 1.0):
        raise ValueError(f"spike_prob must lie in [0, 1], got {spike_prob}")
    rng = np.random.default_rng(seed)
    n, d = values.shape
    for rows in _split_rows(n, _SYNTH_ROWS):
        values[rows] += rng.normal(0.0, noise_sigma, size=(rows.stop - rows.start, d))
    spiked = rng.random(n) < spike_prob
    spike_col = rng.integers(0, d, size=n)
    base = noise_sigma if noise_sigma > 0 else SPIKE_FLOOR_MV
    magnitude = rng.uniform(5.0 * base, 10.0 * base, size=n)
    sign = rng.choice((-1.0, 1.0), size=n)
    rows = np.flatnonzero(spiked)
    values[rows, spike_col[rows]] += sign[rows] * magnitude[rows]


def contaminate(
    values: np.ndarray,
    noise_sigma: float,
    spike_prob: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Add white Gaussian noise and occasional single-window spikes to the
    rows of an (n, d) matrix; returns a new matrix.

    Every window receives i.i.d. N(0, noise_sigma^2). With probability
    ``spike_prob`` per decay, one uniformly chosen window additionally gets a
    deviation of magnitude uniform in [5s, 10s] with random sign, where s is
    ``noise_sigma`` (or 1 mV/V when noise_sigma is zero, so that requested
    spikes never degenerate to zero).
    """
    out = np.array(values, dtype=np.float64, order="C")
    _add_contamination(out, noise_sigma, spike_prob, seed)
    return out


def contaminate_corpus(values: np.ndarray, spec: SyntheticSpec) -> None:
    """Turn the ground truth ``values`` of ``spec`` into its contaminated
    corpus in place. The contamination stream is seeded with spec.seed + 1,
    so truth and noise are independent but both reproducible."""
    _add_contamination(values, spec.noise_sigma, spec.spike_prob, spec.seed + 1)


def synthesize_corpus(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate a paired (ground truth, contaminated) pair of (n, d)
    matrices from one spec (see :func:`contaminate_corpus`)."""
    truth = generate_ground_truth(spec)
    noisy = truth.copy()
    contaminate_corpus(noisy, spec)
    return truth, noisy


# --- file output -----------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new file beside ``path`` for writing (text: UTF-8, ``\\n``
    line ends); it replaces ``path`` when the ``with`` block completes and is
    removed if the block raises, so ``path`` is never left partly written."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode.replace("w", "x"), **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# --- CSV I/O ---------------------------------------------------------------

def _fmt_num(value: float) -> str:
    # integral durations keep the short form ("120"); others round-trip
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


# Rows and cells (rows x columns) per chunk of a table, at most: the cell
# cap bounds the formatter's temporaries (about 40 bytes per cell for the
# text slots, 8 for each of its uint64 arrays). A table of at least
# _PARALLEL_MIN_CELLS cells is formatted and written by a process pool, for
# memory: from 2^16 cells, a serial chunk's formatter temporaries (about
# 3.5 MB) raise the parent's peak more than a pool's workers, forked from it,
# rise above it (about 1 MB). The tables that reach the pool are 24-column
# decay files from 2731 rows and report's 4-column latent_scatter.csv (K=2)
# from 16 384 rows.
_CHUNK_ROWS = 4096
_CHUNK_CELLS = 2**15
_PARALLEL_MIN_CELLS = 2**16


# --- number text ------------------------------------------------------------
#
# Each table cell is laid out in a fixed slot of _SLOT bytes: an optional
# sign and up to 16 integer digits ending at byte 15; for floats the point
# at byte 16 and up to 19 fraction digits; then the separator. The bytes a
# cell keeps form one run, so one boolean mask compacts a chunk's slots
# into its text. Cells the kernel does not decide get their ``repr`` or
# ``str``, spliced in after the compaction.

_SLOT = 40
_POINT = 16
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**19 < 2**64
_MANTISSA = np.uint64(2**52 - 1)
_HIDDEN_BIT = np.uint64(2**52)
_LOW32 = np.uint64(2**32 - 1)


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999, one uint32 each in memory order;
    and in row ``first * _SLOT + end``, the bytes first to end of a slot as
    a mask. Built on first use, so importing the module costs nothing."""
    digits = np.add(np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1), ord("0"),
                    order="C", dtype=np.uint8)
    at = np.arange(_SLOT)
    keep = (at >= at[:, None, None]) & (at <= at[:, None])
    return digits.view(np.uint32).ravel(), keep.reshape(-1, _SLOT).view(np.uint64)


def _float_parts(x: np.ndarray):
    """Shortest round-trip digits of the float64 values ``x`` (what ``repr``
    prints), as ``(neg, whole, frac, f, nint, fast)``: sign, integer part,
    the ``f`` fraction digits as the top digits of a 19-digit ``frac``, the
    number of integer digits, and where these hold.

    The kernel decides finite values with 1e-3 <= |x| < 2**52 that are not
    a power of two, where ``repr`` uses fixed notation. Write x = m·2^-s
    and take E = floor(log10 |x|). X = m·10^(16-E)/2^s has 17 integer
    digits, and the values that read back as x are X ± h with
    h = 10^(16-E)/2^(s+1). The shortest digits are the largest power 10^k
    with a multiple in that interval; the nearest such multiple to X gives
    them. A wrong E estimate or an exact tie between two nearest multiples
    leaves the cell to ``repr``.
    """
    # each intermediate is dropped after its last use: a 2^15-cell chunk
    # peaks at 2.8 MB of temporaries, against 9.2 MB with all of them kept
    neg = np.signbit(x)
    ax = np.abs(x)
    fast = (ax >= 1e-3) & (ax < 2.0**52) & ((x.view(np.uint64) & _MANTISSA) != 0)
    del x
    y = np.where(fast, ax, 1.5)
    del ax
    bits = y.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN_BIT
    s = 1075 - (bits >> 52)
    e10 = np.clip(np.floor(np.log10(y)), -3, 15).astype(np.int64)
    del y, bits
    t = np.take(_POW10, 16 - e10)
    # m·t as a 128-bit (hi, lo) pair from 32-bit limbs
    ml, mh, tl, th = m & _LOW32, m >> 32, t & _LOW32, t >> 32
    del m
    lo, c1, c2 = ml * tl, ml * th, mh * tl
    del ml, tl
    cross = (lo >> 32) + (c1 & _LOW32) + (c2 & _LOW32)
    hi = mh * th + (c1 >> 32) + (c2 >> 32) + (cross >> 32)
    del mh, th, c1, c2
    lo = (cross << 32) | (lo & _LOW32)
    del cross
    whole = (hi << (64 - s)) | (lo >> s)  # integer part of X
    del hi
    below = (np.uint64(1) << s) - 1
    frac = lo & below  # fraction of X, in units of 2^-s
    del lo
    fast &= (whole >= _POW10[16]) & (whole < _POW10[17])
    # smallest (a) and largest (b) integer in [X - h, X + h], h·2^s = t/2.
    # X ± h = 10^(16-E)·(2m ± 1)/2^(s+1) is an odd number times
    # 2^(15-E-s), and 15 - E - s < 0 for every x here: neither end is an
    # integer, so repr's rule for the ends (kept when m is even) never applies.
    half = t >> 1
    del t
    hq, hr = half >> s, half & below
    del half, below
    b = whole + hq + ((frac + hr) >> s)
    a = whole - hq - (frac < hr) + 1
    del hq, hr
    span = b - a
    del a
    # k: the largest power of ten (<= 16) with a multiple in [a, b]
    k = ((b - b // 10 * 10) <= span).astype(np.int64)
    more = (b - b // 100 * 100) <= span
    k += more
    if more.any():
        i = np.flatnonzero(more)
        k.flat[i] += ((b.flat[i][:, None] % _POW10[3:17]) <= span.flat[i][:, None]).sum(axis=1)
    del b, span, more
    # the digits: X / 10^k rounded to nearest. They never round up to a
    # power of ten: 10^(E+1) would then read back as x, but each power of
    # ten from 1e-2 to 1e16 is a double or rounds up to one above itself
    scale = np.take(_POW10, k)
    digits = whole // scale
    rest = whole - digits * scale
    del whole
    mid = scale >> 1
    del scale
    mid_frac = (k == 0) * (np.uint64(1) << (s - 1))
    del s
    at_mid = rest == mid
    fast &= ~(at_mid & (frac == mid_frac))
    digits += (rest > mid) | (at_mid & (frac > mid_frac))
    del rest, mid, at_mid, mid_frac, frac
    last = k + e10 - 16  # decimal exponent of the last digit
    del k
    down = np.take(_POW10, np.maximum(-last, 0))
    whole = digits // down
    frac = (digits - whole * down) * np.take(_POW10, 19 - np.maximum(-last, 1))
    del digits, down
    whole *= np.take(_POW10, np.maximum(last, 0))
    nint = np.maximum(e10 + 1, 1)
    del e10
    fast &= nint + neg <= _POINT
    return neg, whole, frac, np.maximum(-last, 1), nint, fast


def _int_parts(v: np.ndarray):
    """``(neg, whole, nint, fast)`` of integers: sign, magnitude and its
    digit count, and where the magnitude and sign fit the slot."""
    neg = v < 0
    whole = v.astype(np.uint64)
    whole = np.where(neg, 0 - whole, whole)
    nint = np.searchsorted(_POW10[1:16], whole, side="right") + 1
    fast = (whole < _POW10[16]) & (nint + neg <= _POINT)
    return neg, whole, nint, fast


def _put_digits(words: np.ndarray, value: np.ndarray, lo: int, hi: int) -> None:
    """Write words ``lo`` to ``hi`` of the ASCII digits of ``value`` laid out
    over all of ``words``, four to a word, the last word the lowest four."""
    digits = _tables()[0]
    last = words.shape[-1] - 1
    for j in range(lo, hi):
        scale = 10 ** (4 * (last - j))
        group = value // scale
        value = value - group * scale
        # clip: a cell that is not kept may hold a larger value
        words[..., j] = np.take(digits, group.astype(np.intp), mode="clip")


def table_text(columns, rows: slice = slice(None)) -> bytes:
    """UTF-8 text of the rows ``rows`` of the column blocks ``columns``,
    each an (n,) or (n, k) array, as :func:`write_table` writes them."""
    from itertools import groupby  # adjacent blocks of one kind format as one
    blocks = [np.column_stack([c[rows] for c in run])
              for _, run in groupby(columns, lambda c: c.dtype.kind)]
    n = len(blocks[0])
    width = sum(b.shape[1] for b in blocks)
    # (first column, cells) of each run of columns to format. A float
    # column that is all NaN in this chunk is left out: its fields are
    # empty, which is what a slot holds when no cell of it is kept
    runs, col = [], 0
    for b in blocks:
        if b.dtype.kind == "f":
            live = np.concatenate([[False], ~np.isnan(b).all(axis=0), [False]])
            bounds = np.flatnonzero(live[1:] != live[:-1]).reshape(-1, 2).tolist()
            runs += [(col + a, b[:, a:z]) for a, z in bounds]
        else:
            runs.append((col, b))
        col += b.shape[1]
    slots = np.empty((n, width, _SLOT), np.uint8)
    words = slots.view(np.uint32)
    first = np.full((n, width), _POINT, np.intp)  # first kept byte of each slot
    end = np.full((n, width), _POINT, np.intp)  # its separator
    spliced, texts = [], []  # cells formatted one at a time, and their text
    for col, block in runs:
        cols = slice(col, col + block.shape[1])
        kind = block.dtype.kind
        fast, frac = np.zeros(block.shape, bool), None
        if kind == "f" and block.itemsize <= 8:
            neg, whole, frac, f, nint, fast = _float_parts(np.ascontiguousarray(block, np.float64))
        elif kind in "iub":
            neg, whole, nint, fast = _int_parts(block.astype(np.uint8) if kind == "b" else block)
        # NaN is an empty field; every other cell the kernel leaves gets repr/str
        slow = ~fast & ~np.isnan(block) if kind == "f" else ~fast
        fmt = repr if kind == "f" else str
        if fast.any():
            w = words[:, cols]
            # only the digit groups some cell of the block keeps
            digits = int(np.max(nint, where=fast, initial=1))
            _put_digits(w[..., :4], whole, 4 - -(-digits // 4), 4)
            start = _POINT - nint - neg
            first[:, cols][fast] = start[fast]
            if frac is not None:
                # 19 fraction digits in words 4 to 8; the leading zero of
                # word 4 becomes the point
                digits = int(np.max(f, where=fast, initial=1))
                _put_digits(w[..., 4:9], frac, 0, -(-(digits + 1) // 4))
                slots[:, cols, _POINT] = ord(".")
                end[:, cols][fast] = (_POINT + 1 + f)[fast]
            r, j = np.nonzero(fast & neg)
            slots[r, j + col, start[r, j]] = ord("-")
        if slow.any():
            r, j = np.nonzero(slow)
            spliced.append(r * width + j + col)
            texts += map(fmt, block[r, j].tolist())
    separators = np.full(width, ord(","), np.uint8)
    separators[-1] = ord("\n")
    slots[np.arange(n)[:, None], np.arange(width), end] = separators
    keep = np.take(_tables()[1], first * _SLOT + end, axis=0)
    text = slots[keep.view(bool)].tobytes()
    if not texts:
        return text
    # each spliced cell kept only its separator; its text goes before it
    cells = np.concatenate(spliced)
    order = np.argsort(cells, kind="stable")
    sizes = (end - first + 1).ravel()
    at_cells = (np.cumsum(sizes) - sizes)[cells[order]].tolist()
    pieces, prev = [], 0
    for pos, i in zip(at_cells, order.tolist()):
        pieces += (text[prev:pos], texts[i].encode())
        prev = pos
    pieces.append(text[prev:])
    return b"".join(pieces)


# (func, shared, turn, ready) in a pool worker, set once by _adopt_task from
# its fork; None in every other process
_worker_task = None


def _adopt_task(func, shared, turn, ready) -> None:
    global _worker_task
    import signal  # Ctrl-C stops the parent, which then stops the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_task = (func, shared, turn, ready)


def _run_adopted(rows: slice):
    func, shared, turn, _ = _worker_task
    return None if turn[0] == _FAILED else func(shared, rows)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _fork_context():
    """The ``fork`` multiprocessing context, or None where a fork is not
    available or not safe: without the ``fork`` start method, or while other
    Python threads run (a child would inherit any lock they hold)."""
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return None
    return multiprocessing.get_context("fork")


def _split_rows(n: int, max_rows: int) -> list[slice]:
    """The fewest contiguous ranges covering rows 0 to n with at most
    ``max_rows`` rows each, their sizes differing by at most one."""
    parts = -(-n // max_rows)
    edges = [n * i // parts for i in range(1, parts + 1)]
    return [slice(a, b) for a, b in zip([0, *edges], edges)]


# The turn of a pool's ranges once its caller has stopped taking results: a
# range still waiting for its turn returns without appending, and a range
# not yet started is skipped.
_FAILED = -1


@contextmanager
def _map_rows(func, shared, ranges: list[slice], pooled: bool):
    """Yield an iterator of ``func(shared, rows)`` over the row ``ranges``
    (contiguous and increasing), in order.

    When ``pooled``, ``func`` runs in a pool of one worker process per
    usable CPU, at most one per range, if that makes two or more and a
    ``fork`` is safe. The workers inherit ``func`` and ``shared`` through
    ``fork``; only ranges and ``func``'s results are pickled, so a ``func``
    that appends its own output with :func:`append_in_turn` sends back
    nothing. Otherwise ``func`` runs lazily in this process, on the same
    ranges. A worker's exception is raised from the iterator.

    A pool's ranges take turns: one shared int64, the first row of the next
    range to append, under one ``fork`` Condition. When the ``with`` block
    ends, however it ends (done, an error, Ctrl-C), one release sets the
    turn to ``_FAILED`` before the pool joins: ranges waiting for their turn
    return, and the workers skip the ranges not yet started and exit,
    unkilled (a worker killed while it sends a result would leave the result
    queue locked).
    """
    workers = min(_usable_cpus(), len(ranges)) if pooled else 1
    context = _fork_context() if workers > 1 else None
    if context is None:
        yield (func(shared, rows) for rows in ranges)
        return
    import mmap

    turn = np.frombuffer(mmap.mmap(-1, 8), np.int64)
    turn[0] = ranges[0].start
    ready = context.Condition()
    pool = context.Pool(workers, _adopt_task, (func, shared, turn, ready))
    try:
        yield pool.imap(_run_adopted, ranges)
    finally:
        with ready:
            turn[0] = _FAILED
            ready.notify_all()
        pool.close()
        pool.join()


def append_in_turn(fd: int, rows: slice, text: bytes) -> None:
    """Append ``text``, the output of the range ``rows`` of a
    :func:`_map_rows` call, to the open file ``fd`` after the output of
    every range before it.

    In a pool worker the range waits for its turn, appends with
    ``os.write`` (a process forked while the file is open shares its
    offset) and hands the turn on as ``rows.stop``; it writes nothing once
    the turn is ``_FAILED``. Ranges run in this process are in turn already.
    """
    if _worker_task is not None:
        _, _, turn, ready = _worker_task
        with ready:
            ready.wait_for(lambda: turn[0] in (rows.start, _FAILED))
            if turn[0] != _FAILED:
                _write_all(fd, text)
                turn[0] = rows.stop
                ready.notify_all()
    else:
        _write_all(fd, text)


def _write_all(fd: int, text: bytes) -> None:
    view = memoryview(text)
    while view:
        view = view[os.write(fd, view):]


def _place_chunk(shared, rows: slice) -> None:
    """Format the chunk ``rows`` of the table ``columns`` and append it to
    the open file ``fd`` in row order; ``shared`` is ``(columns, fd)``."""
    columns, fd = shared
    append_in_turn(fd, rows, table_text(columns, rows))


@cache
def _lift_mmap_threshold() -> None:
    """Free one untouched 4 MB block, once, so that later blocks of up to
    4 MB in this process and the workers it forks come from the heap.

    glibc's malloc maps each block above its mmap threshold (128 KB at
    start) on its own and unmaps it when freed, so the formatter temporaries
    of a table chunk (up to 1.3 MB of text slots) or a denoise group would
    fault in fresh pages every time: a 70k-decay ``synth`` made 123k minor
    faults instead of 25k. Freeing a mapped block raises the threshold to its size. The block is
    never written, so it costs no resident memory, and it is just under
    4 MB: numpy advises huge pages for a block of 4 MB or more, and on the
    heap that advice would outlive the block.
    """
    np.empty(2**22 - 4096, np.uint8)


def write_table(path, header: str, *columns) -> None:
    """Write a CSV table atomically: the ``header`` text (the column names,
    after any leading comment lines), then one line per row of the column
    blocks, each an (n,) or (n, k) array.

    Row text comes from :func:`table_text`, the one place that sets the
    text of a number in an output file. Floats are written in shortest
    round-trip form, byte for byte what ``repr`` prints, and NaN as an
    empty field; integers in decimal, bools as ``1``/``0``, strings as
    they are. Rows are formatted in the fewest near-equal chunks of at
    most 4096 rows and 2^15 cells. Each chunk's numbers are turned into
    text by one numpy kernel that fills one byte buffer; only values
    outside its domain (for floats: zero, |x| < 1e-3 or >= 2^52, powers of
    two, inf) and strings call ``repr`` or ``str`` one at a time.

    Chunks are formatted and written on every usable core: a table of two
    or more chunks and at least 2^16 cells is handled by a ``fork`` pool,
    one task per chunk, of one worker process per usable CPU and at most
    one per chunk. The header is flushed before the pool forks; each worker
    formats its chunk and appends it, in row order, to the file it
    inherited (:func:`append_in_turn`), and no chunk text comes back. Smaller
    tables, single-CPU hosts, platforms without ``fork`` and processes
    running other threads run the same chunks here in row order; the bytes
    are the same either way. An error in a worker is raised here and
    leaves no file behind.
    """
    blocks = [np.asarray(c) for c in columns]
    n = len(blocks[0])
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    names = header.rsplit("\n", 1)[-1].split(",")
    if any(len(b) != n for b in blocks) or width != len(names):
        raise ValueError(
            f"{len(names)} column names for blocks of shapes {[b.shape for b in blocks]}"
        )
    ranges = _split_rows(n, max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // width)))
    with atomic_open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        fh.flush()
        pooled = n * width >= _PARALLEL_MIN_CELLS
        if pooled:
            _lift_mmap_threshold()
        with _map_rows(_place_chunk, (blocks, fh.fileno()), ranges, pooled) as chunks:
            for _ in chunks:
                pass


def write_decays(decays: DecaySet, path) -> None:
    """Write a decay set to ``path`` in the ipvae-decays v1 CSV format.

    Floats are written with repr so a read-back reproduces them bit-exactly;
    empty (NaN) metadata fields are left blank. Row ids are the sequential
    row position.
    """
    scheme = decays.scheme
    header = (
        f"{CSV_MAGIC}; d={scheme.count};"
        f" delay_ms={_fmt_num(scheme.delay_ms)}; window_ms={_fmt_num(scheme.window_ms)}\n"
        + ",".join([*_META_COLUMNS, *(f"m{j + 1}" for j in range(scheme.count))])
    )
    write_table(path, header, np.arange(len(decays)), decays.vp_mv, decays.current_ma,
                decays.label, decays.values)


def _parse_header(line: str, path) -> WindowScheme:
    if not line.startswith(CSV_MAGIC):
        raise DecayFormatError(
            f"{path}: missing '{CSV_MAGIC}' header (got {line[:40]!r})"
        )
    meta: dict[str, str] = {}
    for part in line[len(CSV_MAGIC):].split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DecayFormatError(f"{path}: malformed header entry {part!r}")
        key, value = part.split("=", 1)
        meta[key.strip()] = value.strip()
    for key in ("d", "delay_ms", "window_ms"):
        if key not in meta:
            raise DecayFormatError(f"{path}: header missing '{key}'")
    try:
        return WindowScheme(
            delay_ms=float(meta["delay_ms"]),
            window_ms=float(meta["window_ms"]),
            count=int(meta["d"]),
        )
    except ValueError as exc:
        raise DecayFormatError(f"{path}: invalid header values ({exc})") from exc


def _opt_float(token: str) -> float:
    """Value of an optional field: NaN when empty. A literal NaN is refused,
    since NaN stands for the empty field."""
    if token == "":
        return math.nan
    value = float(token)
    if math.isnan(value):
        raise ValueError(f"NaN is reserved for an empty field: {token!r}")
    return value


def _decay_set(table: np.ndarray, columns: list[str], scheme: WindowScheme) -> DecaySet:
    """DecaySet of parsed rows whose fields are laid out as in ``columns``.

    ``table`` must be a C-contiguous array that owns its data, and it is
    used up: its window columns are moved to the front of its buffer, which
    then shrinks to them and becomes the DecaySet's values, so no second
    (n, d) array is made. Rows move block by block in increasing order; a
    block is read in full before it is written, and it lands at or before
    where it was read, so no row is overwritten before it is read.
    """
    index = {name: i for i, name in enumerate(columns)}
    meta = {name: np.take(table, index[name], axis=1) for name in _META_COLUMNS[1:]}
    windows = [index[f"m{j + 1}"] for j in range(scheme.count)]
    n, d = len(table), scheme.count
    front = table.reshape(-1)[:n * d].reshape(n, d)
    _lift_mmap_threshold()  # then a denoise group's text temporaries stay on the heap
    block = max(1, 2**15 // d)
    for start in range(0, n, block):
        front[start:start + block] = table[start:start + block, windows]
    del front
    table.resize((n, d), refcheck=False)  # no view of the table is left
    return DecaySet(values=table, scheme=scheme, **meta)


def _read_lines(lines, columns: list[str], scheme: WindowScheme, path) -> DecaySet:
    """Parse data lines one at a time, naming the first bad line and column.

    The parsed rows, window columns first, fill a table that grows by
    doubling, and DecaySet's rules are applied once, to all of them. Only
    when those fail is the first row that breaks one looked for, by halving,
    so that the error names the same line and rule as a check of each row
    as it was read; a rule broken before an unparsable line is reported
    first, for the same reason.
    """
    index = {name: i for i, name in enumerate(columns)}
    names = [f"m{j + 1}" for j in range(scheme.count)] + list(_META_COLUMNS[1:])
    parsers = [(index[name], _opt_float if name in _META_COLUMNS else float, name)
               for name in names]
    table = np.empty((1024, len(names)))
    n, blank, fault = 0, [], None
    for line_no, line in enumerate(lines, start=3):
        if not line.strip():
            blank.append(line_no)
            continue
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(columns):
            fault = DecayFormatError(
                f"{path}: line {line_no}: expected {len(columns)} fields"
                f" ({scheme.count} windows), got {len(fields)}"
            )
            break
        row = []
        try:
            for i, parse, name in parsers:
                row.append(parse(fields[i]))
        except ValueError as exc:
            fault = DecayFormatError(
                f"{path}: line {line_no}, column '{name}': not a number: {fields[i]!r}")
            fault.__cause__ = exc
            break
        if n == len(table):
            table.resize((2 * n, len(names)), refcheck=False)
        table[n] = row
        n += 1
    if n:
        table.resize((n, len(names)), refcheck=False)
        meta = table[:, scheme.count:].copy()  # _decay_set uses up the table
        try:
            decays = _decay_set(table, names, scheme)
        except ValueError:
            # _decay_set has left the window values in the table
            bad, exc = _first_fault(table, meta, scheme)
            line_no = bad + 3
            for skipped in blank:  # each blank line above the row moves it down
                line_no += skipped <= line_no
            raise DecayFormatError(f"{path}: line {line_no}: {exc}") from exc
        if fault is None:
            return decays
    raise fault or DecayFormatError(f"{path}: no decay rows found")


def _first_fault(values: np.ndarray, meta: np.ndarray, scheme: WindowScheme):
    """Index of the first row of a rejected table that DecaySet rejects on
    its own, and the error it raises for that row."""
    lo, hi = 0, len(values)  # a row in [lo, hi) breaks a rule, and none before lo
    while True:
        mid = lo + max(1, (hi - lo) // 2)
        try:
            DecaySet(values[lo:mid], scheme, *meta[lo:mid].T)
        except ValueError as exc:
            if mid == lo + 1:
                return lo, exc
            hi = mid
        else:
            lo = mid


def read_decays(path) -> DecaySet:
    """Read a decay file written by :func:`write_decays`.

    Unknown extra columns are ignored with a warning; malformed rows raise
    :class:`DecayFormatError` naming the offending line and column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = [fh.readline() for _ in range(2)]
        if not head[1]:
            raise DecayFormatError(f"{path}: truncated file (header lines missing)")
        scheme = _parse_header(head[0].rstrip("\n"), path)
        columns = [c.strip() for c in head[1].rstrip("\n").split(",")]
        expected = set(_META_COLUMNS) | {f"m{j + 1}" for j in range(scheme.count)}
        for name in columns:
            if name not in expected:
                warnings.warn(f"{path}: ignoring unknown column '{name}'")
        missing = [c for c in expected if c not in columns]
        if missing:
            raise DecayFormatError(
                f"{path}: required columns missing: {', '.join(sorted(missing))}"
            )
        converters = {i: _opt_float for i, c in enumerate(columns) if c in _META_COLUMNS[1:]}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                # an explicit encoding makes numpy < 2 pass str, not bytes, to converters
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                   converters=converters, encoding="utf-8")
            if table.shape[1] == len(columns):
                return _decay_set(table, columns, scheme)
        except ValueError:
            pass  # any fault is reported by the per-line parse below
        table = None  # a table that DecaySet's rules rejected is freed before the re-read
    with open(path, "r", encoding="utf-8") as fh:
        for _ in range(2):
            fh.readline()  # the header lines, parsed above
        return _read_lines(fh, columns, scheme, path)
