"""Decay-curve data model, windowed chargeability, synthetic corpora, CSV I/O.

A time-domain IP measurement is a short sequence of chargeability values
(mV/V), one per integration window, recorded after the transmitter current
is switched off. Computations hold a corpus as an (n, d) float64 matrix, one
decay per row. This module generates synthetic corpora from a
stretched-exponential relaxation family, contaminates them with Gaussian
noise and spikes, reads/writes the ``ipvae-decays v1`` CSV format through
:class:`DecaySet`, and writes every output file atomically; every CSV table,
decay files included, goes through :func:`write_table`.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

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
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
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


def generate_ground_truth(spec: SyntheticSpec) -> np.ndarray:
    """Draw a noise-free (n, d) corpus of stretched-exponential decays.

    Parameter draw order is fixed (m0 vector, then tau, then c) so that a
    given (spec, seed) always produces the same corpus.
    """
    rng = np.random.default_rng(spec.seed)
    m0 = rng.uniform(*spec.m0_range, spec.n)
    tau = rng.uniform(*spec.tau_range, spec.n)
    c = rng.uniform(*spec.c_range, spec.n)
    t = spec.scheme.midpoints_s()
    return m0[:, None] * np.exp(-((t[None, :] / tau[:, None]) ** c[:, None]))


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
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not (0.0 <= spike_prob <= 1.0):
        raise ValueError(f"spike_prob must lie in [0, 1], got {spike_prob}")
    rng = np.random.default_rng(seed)
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    out = values + rng.normal(0.0, noise_sigma, size=(n, d))
    spiked = rng.random(n) < spike_prob
    spike_col = rng.integers(0, d, size=n)
    base = noise_sigma if noise_sigma > 0 else SPIKE_FLOOR_MV
    magnitude = rng.uniform(5.0 * base, 10.0 * base, size=n)
    sign = rng.choice((-1.0, 1.0), size=n)
    rows = np.flatnonzero(spiked)
    out[rows, spike_col[rows]] += sign[rows] * magnitude[rows]
    return out


def synthesize_corpus(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate a paired (ground truth, contaminated) pair of (n, d)
    matrices from one spec.

    The contamination stream is seeded with spec.seed + 1 so truth and noise
    are independent but both reproducible.
    """
    truth = generate_ground_truth(spec)
    noisy = contaminate(truth, spec.noise_sigma, spec.spike_prob, seed=spec.seed + 1)
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


def _row_fields(block: np.ndarray) -> list[str]:
    """Text of each row of one chunk of a column block."""
    kind = block.dtype.kind
    if kind == "b":
        block = block.astype(np.uint8)
    fmt = repr if kind == "f" else str
    rows = block.tolist()
    text = list(map(fmt, rows)) if block.ndim == 1 else [",".join(map(fmt, r)) for r in rows]
    if kind == "f" and np.isnan(block).any():
        # no float's repr contains "nan" except NaN's own
        text = [t.replace("nan", "") for t in text]
    return text


# Rows per chunk of a table, and the fewest cells (rows x columns) a table
# must hold for its chunks to be formatted by a process pool. On 2 cores a
# pool costs 20-35 ms and breaks even near 33 000 float cells (two full
# chunks); twice that keeps small tables, such as a loss curve, serial.
_CHUNK_ROWS = 4096
_PARALLEL_MIN_CELLS = 65_536


def _chunk_text(groups: list[list[np.ndarray]], start: int) -> str:
    """Text of the table rows ``start`` to ``start + _CHUNK_ROWS``."""
    rows = slice(start, start + _CHUNK_ROWS)
    fields = [
        _row_fields(np.column_stack([b[rows] for b in g]) if len(g) > 1 else g[0][rows])
        for g in groups
    ]
    return "\n".join(map(",".join, zip(*fields))) + "\n"


# The column groups of the table a pool worker formats. Only the workers set
# it, once each, in _adopt_groups: they inherit the arrays from the parent
# through fork, so no column is pickled.
_worker_groups: list[list[np.ndarray]] = []


def _adopt_groups(groups: list[list[np.ndarray]]) -> None:
    global _worker_groups
    _worker_groups = groups


def _worker_chunk_text(start: int) -> str:
    return _chunk_text(_worker_groups, start)


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


def write_table(path, header: str, *columns) -> None:
    """Write a CSV table atomically: the ``header`` text (the column names,
    after any leading comment lines), then one line per row of the column
    blocks, each an (n,) or (n, k) array.

    This is the one place that sets the text of a number in an output file.
    Floats are written in shortest round-trip form (``repr``), NaN as an
    empty field; integers in decimal, bools as ``1``/``0``, strings as they
    are. Rows are formatted 4096 at a time; adjacent float blocks are
    stacked per chunk, so each row's floats take one join.

    Chunks are formatted on every usable core: a table of two or more
    chunks and at least 65 536 cells (rows x columns) is formatted by a
    ``fork`` pool of one worker process per usable CPU, and the chunk texts
    are written in row order. Smaller tables, single-CPU hosts, platforms
    without ``fork`` and processes running other threads format serially;
    the bytes are the same either way. An error in a worker is raised here
    and leaves no file behind.
    """
    blocks = [np.asarray(c) for c in columns]
    n = len(blocks[0])
    width = sum(1 if b.ndim == 1 else b.shape[1] for b in blocks)
    names = header.rsplit("\n", 1)[-1].split(",")
    if any(len(b) != n for b in blocks) or width != len(names):
        raise ValueError(
            f"{len(names)} column names for blocks of shapes {[b.shape for b in blocks]}"
        )
    groups: list[list[np.ndarray]] = []
    for b in blocks:
        if groups and b.dtype.kind == "f" and groups[-1][-1].dtype.kind == "f":
            groups[-1].append(b)
        else:
            groups.append([b])
    starts = range(0, n, _CHUNK_ROWS)
    workers = min(_usable_cpus(), len(starts)) if n * width >= _PARALLEL_MIN_CELLS else 1
    context = _fork_context() if workers > 1 else None
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        if context is None:
            fh.writelines(_chunk_text(groups, start) for start in starts)
        else:
            with context.Pool(workers, _adopt_groups, (groups,)) as pool:
                fh.writelines(pool.imap(_worker_chunk_text, starts))


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
    """DecaySet of parsed rows whose fields are laid out as in ``columns``."""
    index = {name: i for i, name in enumerate(columns)}
    return DecaySet(
        values=table[:, [index[f"m{j + 1}"] for j in range(scheme.count)]],
        scheme=scheme,
        **{name: table[:, index[name]] for name in _META_COLUMNS[1:]},
    )


def _read_lines(lines: list[str], columns: list[str], scheme: WindowScheme, path) -> DecaySet:
    """Parse data lines one at a time, naming the first bad line and column."""
    index = {name: i for i, name in enumerate(columns)}
    names = [f"m{j + 1}" for j in range(scheme.count)] + list(_META_COLUMNS[1:])
    rows = []
    for line_no, line in enumerate(lines, start=3):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise DecayFormatError(
                f"{path}: line {line_no}: expected {len(columns)} fields"
                f" ({scheme.count} windows), got {len(fields)}"
            )
        row = np.zeros(len(fields))
        for name in names:
            token = fields[index[name]]
            try:
                row[index[name]] = _opt_float(token) if name in _META_COLUMNS else float(token)
            except ValueError as exc:
                raise DecayFormatError(
                    f"{path}: line {line_no}, column '{name}': not a number: {token!r}"
                ) from exc
        try:
            _decay_set(row[None, :], columns, scheme)
        except ValueError as exc:
            raise DecayFormatError(f"{path}: line {line_no}: {exc}") from exc
        rows.append(row)
    if not rows:
        raise DecayFormatError(f"{path}: no decay rows found")
    return _decay_set(np.array(rows), columns, scheme)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return _read_lines(lines[2:], columns, scheme, path)
