import math
import multiprocessing
import os
import threading
import warnings
from multiprocessing.pool import RemoteTraceback

import numpy as np
import pytest

from ipvae import data
from ipvae.data import (
    DecayFormatError,
    DecaySet,
    SyntheticSpec,
    WindowScheme,
    average_chargeability,
    contaminate,
    generate_ground_truth,
    read_decays,
    synthesize_corpus,
    write_decays,
    write_table,
)


def make_decay(values, **meta):
    """A one-row DecaySet; each metadata keyword takes one value."""
    return DecaySet(np.atleast_2d(np.asarray(values, dtype=float)),
                    **{name: [value] for name, value in meta.items()})


class TestWindowScheme:
    def test_default_scheme(self):
        s = WindowScheme()
        assert (s.delay_ms, s.window_ms, s.count) == (120.0, 40.0, 20)

    def test_midpoints(self):
        s = WindowScheme()
        t = s.midpoints_s()
        assert t[0] == pytest.approx(0.14)
        assert t[-1] == pytest.approx(0.90)

    @pytest.mark.parametrize("kwargs", [
        dict(delay_ms=0), dict(window_ms=-1), dict(count=1),
        dict(delay_ms=float("nan")), dict(delay_ms=float("inf")),
        dict(window_ms=float("nan")), dict(window_ms=float("inf")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WindowScheme(**kwargs)


class TestIpDecay:
    """Validation of decay rows, enforced by DecaySet."""

    def test_wrong_count(self):
        with pytest.raises(ValueError, match="20"):
            make_decay(np.ones(19))

    def test_non_finite_rejected(self):
        values = np.ones(20)
        values[3] = np.nan
        with pytest.raises(ValueError, match="'m4': non-finite"):
            make_decay(values)

    def test_negative_windows_allowed(self):
        dec = make_decay(np.linspace(-2.0, 5.0, 20))
        assert dec.values[0, 0] == -2.0

    def test_vp_must_be_positive(self):
        with pytest.raises(ValueError, match="vp_mv"):
            make_decay(np.ones(20), vp_mv=-3.0)

    def test_label_range(self):
        with pytest.raises(ValueError, match="label"):
            make_decay(np.ones(20), label=120.0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            DecaySet(np.empty((0, 20)))

    def test_metadata_defaults_to_empty(self):
        decays = DecaySet(np.ones((3, 20)), vp_mv=[1.0, np.nan, 2.0])
        assert len(decays) == 3
        assert np.isnan(decays.vp_mv[1]) and decays.vp_mv[2] == 2.0
        assert np.all(np.isnan(decays.current_ma)) and np.all(np.isnan(decays.label))
        with pytest.raises(ValueError, match="label must hold 3"):
            DecaySet(np.ones((3, 20)), label=[1.0, 2.0])


class TestAverageChargeability:
    def test_constant_sequence(self):
        assert average_chargeability(np.full(20, 5.0)) == 5.0

    def test_linear_ramp(self):
        # 20, 19, ..., 1 sums to 210
        assert average_chargeability(np.arange(20.0, 0.0, -1.0)) == pytest.approx(10.5)

    def test_two_point_mean(self):
        assert average_chargeability(np.array([3.0, 1.0])) == pytest.approx(2.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5, 2, 20)
        a, b = 2.5, -1.25
        lhs = average_chargeability(a * x + b)
        rhs = a * average_chargeability(x) + b
        assert lhs == pytest.approx(rhs)

    def test_one_value_per_row(self):
        rows = np.array([np.full(20, 5.0), np.arange(20.0, 0.0, -1.0)])
        assert np.allclose(average_chargeability(rows), [5.0, 10.5])


class TestGenerateGroundTruth:
    def test_huge_tau_is_flat(self):
        spec = SyntheticSpec(n=5, m0_range=(10, 10), tau_range=(1e9, 1e9),
                             c_range=(0.5, 1.0), seed=1)
        assert np.all(np.abs(generate_ground_truth(spec) - 10.0) < 0.1)

    def test_first_window_matches_formula(self):
        # tau equal to the first window midpoint, c=1: m1 = m0/e
        spec = SyntheticSpec(n=3, m0_range=(10, 10), tau_range=(0.14, 0.14),
                             c_range=(1.0, 1.0), seed=1)
        for row in generate_ground_truth(spec):
            assert row[0] == pytest.approx(10.0 * math.exp(-1.0), rel=1e-12)

    def test_deterministic(self):
        spec = SyntheticSpec(n=50, seed=123)
        assert np.array_equal(generate_ground_truth(spec), generate_ground_truth(spec))

    def test_monotone_non_increasing(self):
        values = generate_ground_truth(SyntheticSpec(n=200, seed=5))
        assert np.all(np.diff(values, axis=1) <= 1e-12)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=5, m0_range=(10, 5))

    @pytest.mark.parametrize("kwargs", [
        dict(m0_range=(1, np.inf)), dict(tau_range=(np.nan, 1)),
        dict(c_range=(0.5, np.nan)), dict(noise_sigma=np.nan), dict(noise_sigma=np.inf),
    ])
    def test_rejects_non_finite_setting(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(n=5, **kwargs)


class TestContaminate:
    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_rejects_bad_noise_sigma(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            contaminate(np.ones((2, 20)), noise_sigma=sigma)

    def test_zero_noise_is_identity(self):
        values = generate_ground_truth(SyntheticSpec(n=20, seed=2))
        out = contaminate(values, noise_sigma=0.0, spike_prob=0.0, seed=9)
        assert np.array_equal(out, values)

    def test_noise_std(self):
        # per-window sample std of the perturbation within 2% at n=1e5
        values = generate_ground_truth(SyntheticSpec(n=100_000, seed=3))
        out = contaminate(values, noise_sigma=1.1, spike_prob=0.0, seed=10)
        stds = (out - values).std(axis=0)
        assert np.all(np.abs(stds - 1.1) < 0.022)

    def test_spike_contract(self):
        values = generate_ground_truth(SyntheticSpec(n=50, seed=4))
        out = contaminate(values, noise_sigma=0.0, spike_prob=1.0, seed=11)
        assert np.all((out != values).sum(axis=1) == 1)

    def test_deterministic(self):
        values = generate_ground_truth(SyntheticSpec(n=30, seed=6))
        a = contaminate(values, 0.7, 0.5, seed=12)
        b = contaminate(values, 0.7, 0.5, seed=12)
        assert np.array_equal(a, b)

    def test_spike_magnitude_scales_with_sigma(self):
        values = generate_ground_truth(SyntheticSpec(n=2000, seed=7))
        out = contaminate(values, noise_sigma=0.0, spike_prob=1.0, seed=13)
        spikes = np.abs(out - values).max(axis=1)
        # zero-sigma contamination falls back to the 1 mV/V spike floor
        assert spikes.min() >= 5.0 - 1e-9
        assert spikes.max() <= 10.0 + 1e-9


def write_corpus(path, n, seed):
    _, noisy = synthesize_corpus(SyntheticSpec(n=n, seed=seed))
    write_decays(DecaySet(noisy), path)
    return noisy


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def set_field(lines, line_no, column, token):
    """Replace one field of a data line, addressed as in error messages."""
    names = lines[1].split(",")
    fields = lines[line_no - 1].split(",")
    fields[names.index(column)] = token
    lines[line_no - 1] = ",".join(fields)


@pytest.fixture
def bulk_only(monkeypatch):
    """Fail the test if read_decays falls back to the per-line parser."""
    def fail(*args):
        raise AssertionError("per-line fallback used")

    monkeypatch.setattr(data, "_read_lines", fail)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        spec = SyntheticSpec(n=100, seed=8)
        _, noisy = synthesize_corpus(spec)
        vp, current, label = np.full((3, 100), np.nan)
        vp[0], current[1], label[2] = 633.0, 890.0, 87.5
        path = tmp_path / "decays.csv"
        write_decays(DecaySet(noisy, vp_mv=vp, current_ma=current, label=label), path)
        back = read_decays(path)
        assert len(back) == len(noisy)
        assert np.array_equal(back.values, noisy)
        assert back.values.flags.c_contiguous
        assert back.vp_mv[0] == 633.0
        assert back.current_ma[1] == 890.0
        assert back.label[2] == 87.5
        assert np.isnan(back.vp_mv[3])

    def test_short_row_errors_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_corpus(path, 3, 9)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1])  # drop one window value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DecayFormatError, match="line 4"):
            read_decays(path)

    def test_unknown_column_warns_and_is_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        noisy = write_corpus(path, 2, 10)
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + ",operator_note"
        lines[2] = lines[2] + ",keep"
        lines[3] = lines[3] + ",skip"
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="operator_note"):
            back = read_decays(path)
        assert np.array_equal(back.values, noisy)

    def test_missing_header_magic(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("id,vp_mv\n1,2\n")
        with pytest.raises(DecayFormatError, match="ipvae-decays"):
            read_decays(path)

    def test_non_numeric_window_names_column(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_corpus(path, 2, 11)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[4] = "oops"  # m1 column
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DecayFormatError, match="m1"):
            read_decays(path)

    def test_non_integral_scheme_round_trips(self, tmp_path):
        scheme = WindowScheme(delay_ms=120.1234567, window_ms=0.1, count=5)
        path = tmp_path / "scheme.csv"
        write_decays(DecaySet(np.ones((2, 5)), scheme), path)
        assert read_decays(path).scheme == scheme

    def test_integral_scheme_header_keeps_short_form(self, tmp_path):
        path = tmp_path / "default.csv"
        write_corpus(path, 1, 12)
        header = path.read_text().splitlines()[0]
        assert header == "# ipvae-decays v1; d=20; delay_ms=120; window_ms=40"


class TestWriteTable:
    def test_each_type_keeps_its_form(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(
            path, "a,b,c,d,e,f,g,h,i,j,k",
            np.array([0.1]), np.array([np.inf]), np.array([np.nan]),
            np.array([0.5], dtype=np.float32), np.array([True]), np.array([False]),
            np.array([3]), np.array([-2], dtype=np.int64), np.array([7], dtype=np.uint8),
            np.array(["ip_vae"]), np.array([[-0.0]]),
        )
        assert path.read_text() == "a,b,c,d,e,f,g,h,i,j,k\n0.1,inf,,0.5,1,0,3,-2,7,ip_vae,-0.0\n"

    def test_matches_per_row_decay_writer(self, tmp_path):
        """write_decays over more than one 4096-row chunk, against the
        per-row loop it replaced, with mixed and with all-empty metadata."""
        n = 5000
        _, noisy = synthesize_corpus(SyntheticSpec(n=n, seed=19))
        rng = np.random.default_rng(19)
        vp, current, label = rng.uniform(1.0, 100.0, (3, n))
        vp[rng.random(n) < 0.5] = np.nan
        current[4096:] = np.nan
        label[:4096] = np.nan
        scheme = WindowScheme(delay_ms=120.5, window_ms=40.0, count=20)
        for decays in (DecaySet(noisy, scheme, vp, current, label), DecaySet(noisy, scheme)):
            meta = np.column_stack((decays.vp_mv, decays.current_ma, decays.label)).tolist()
            lines = ["# ipvae-decays v1; d=20; delay_ms=120.5; window_ms=40",
                     ",".join(["id", "vp_mv", "current_ma", "label"]
                              + [f"m{j + 1}" for j in range(20)])]
            for i, (row, opt) in enumerate(zip(decays.values, meta)):
                fields = [str(i), *("" if math.isnan(v) else repr(v) for v in opt),
                          *map(repr, row.tolist())]
                lines.append(",".join(fields))
            write_decays(decays, tmp_path / "d.csv")
            assert (tmp_path / "d.csv").read_text().split("\n") == [*lines, ""]

    @pytest.mark.parametrize("header, columns", [
        ("a,b", (np.zeros(3), np.zeros(4))),
        ("a,b", (np.zeros((3, 2)), np.zeros(3))),
        ("a,b,c", (np.zeros(3), np.zeros(3))),
    ])
    def test_shape_mismatch_writes_nothing(self, tmp_path, header, columns):
        with pytest.raises(ValueError, match="column names"):
            write_table(tmp_path / "t.csv", header, *columns)
        assert list(tmp_path.iterdir()) == []


def force_serial(m):
    m.setattr(data, "_usable_cpus", lambda: 1)


def force_pool(m):
    """Format every table of two or more chunks in a pool of three workers
    (more than some hosts have cores), and fail if a chunk of such a table
    is formatted in the calling process."""
    parent, chunk_text = os.getpid(), data._chunk_text

    def in_worker(groups, start):
        if os.getpid() == parent and len(groups[0][0]) > data._CHUNK_ROWS:
            raise AssertionError("chunk formatted outside the pool")
        return chunk_text(groups, start)

    m.setattr(data, "_usable_cpus", lambda: 3)
    m.setattr(data, "_PARALLEL_MIN_CELLS", 0)
    m.setattr(data, "_chunk_text", in_worker)


def serial_and_pooled_bytes(monkeypatch, tmp_path, write):
    """The bytes ``write(path)`` leaves with the serial and with the pooled
    chunk formatter."""
    out = []
    for force in (force_serial, force_pool):
        path = tmp_path / f"{force.__name__}.csv"
        with monkeypatch.context() as m:
            force(m)
            write(path)
        out.append(path.read_bytes())
    return out


def mixed_columns(n):
    """One column of each kind write_table formats, with NaN, inf and -0.0."""
    rng = np.random.default_rng(n)
    meta = rng.uniform(1.0, 100.0, n)
    meta[rng.random(n) < 0.5] = np.nan
    block = rng.normal(0.0, 10.0, (n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    block[::5, 0] = np.inf
    block[1::7, 1] = -np.inf
    block[2::3, 2] = -0.0
    return (
        np.arange(n), meta, block, rng.normal(size=n).astype(np.float32),
        rng.random(n) < 0.5, rng.integers(-5, 5, n), rng.integers(0, 256, n).astype(np.uint8),
        np.array([f"s{i % 13}" for i in range(n)]), -rng.random((n, 1)),
    )


class TestPooledWriter:
    """Chunks formatted by the process pool give the serial writer's bytes."""

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 1])
    def test_column_mix_same_bytes(self, monkeypatch, tmp_path, n):
        header = "# a comment line\nid,meta,x1,x2,x3,f32,flag,int,u8,name,last"
        serial, pooled = serial_and_pooled_bytes(
            monkeypatch, tmp_path, lambda path: write_table(path, header, *mixed_columns(n))
        )
        assert pooled == serial
        assert serial.count(b"\n") == n + 2

    def test_decay_file_same_bytes(self, monkeypatch, tmp_path):
        n = 3 * 4096 + 1
        _, noisy = synthesize_corpus(SyntheticSpec(n=n, seed=23))
        rng = np.random.default_rng(23)
        vp, current, label = rng.uniform(1.0, 100.0, (3, n))
        vp[rng.random(n) < 0.5] = np.nan
        current[4096:] = np.nan
        label[:4096] = np.nan
        decays = DecaySet(noisy, WindowScheme(delay_ms=120.5), vp, current, label)
        serial, pooled = serial_and_pooled_bytes(
            monkeypatch, tmp_path, lambda path: write_decays(decays, path)
        )
        assert pooled == serial
        assert np.array_equal(read_decays(tmp_path / "force_pool.csv").label, label,
                              equal_nan=True)

    def test_small_table_stays_serial(self, monkeypatch, tmp_path):
        def no_pool():
            raise AssertionError("pool used for a small table")

        monkeypatch.setattr(data, "_fork_context", no_pool)
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        write_table(tmp_path / "t.csv", "a,b", np.arange(8192), np.ones(8192))
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 8193

    def test_no_fork_while_other_threads_run(self):
        assert data._fork_context() is not None
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        thread.start()
        try:
            assert data._fork_context() is None
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_workers_gone_after_write(self, monkeypatch, tmp_path):
        force_pool(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write_table(tmp_path / "t.csv", "a", np.arange(10_000))
        # Python 3.12 warns when it forks a process that runs threads
        assert [w for w in caught if "fork" in str(w.message)] == []
        assert multiprocessing.active_children() == []


def range_rows(shared, rows):
    return rows.stop - rows.start


class TestRowRanges:
    """Tables and denoising calls are cut into balanced row ranges."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 4097, 12_289])
    @pytest.mark.parametrize("parts", [1, 2, 3, 6])
    @pytest.mark.parametrize("unit", [1, 8, 4096])
    def test_split_rows_balanced_whole_blocks(self, n, parts, unit):
        ranges = data._split_rows(n, parts, unit)
        assert len(ranges) == min(parts, -(-n // unit))
        assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
        if n:
            assert ranges[0].start == 0 and ranges[-1].stop == n
        assert all(r.start % unit == 0 for r in ranges)
        blocks = [-(-(r.stop - r.start) // unit) for r in ranges]
        assert max(blocks, default=0) - min(blocks, default=0) <= 1

    @pytest.mark.parametrize("n, cpus, sizes", [
        (4096, 2, [4096]),
        (4097, 2, [2048, 2049]),
        (12_289, 2, [3072, 3072, 3072, 3073]),
        (12_289, 3, [2048, 2048, 2048, 2048, 2048, 2049]),
    ])
    def test_pooled_table_in_equal_ranges(self, monkeypatch, n, cpus, sizes):
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        with data._map_rows(range_rows, None, n, data._CHUNK_ROWS, pooled=True) as results:
            assert list(results) == sizes
        assert multiprocessing.active_children() == []

    def test_serial_table_in_equal_ranges(self):
        with data._map_rows(range_rows, None, 4097, data._CHUNK_ROWS,
                            pooled=False) as results:
            assert list(results) == [2048, 2049]


class TestPooledAtomicOutputs:
    """TestAtomicOutputs of test_cli, with the failing chunk in a worker."""

    class Unprintable:
        def __str__(self):
            raise RuntimeError("unprintable value")

    def failing_column(self):
        """An object column whose value in the second 4096-row chunk fails."""
        column = np.arange(5000).astype(object)
        column[4500] = self.Unprintable()
        return column

    def test_failed_write_leaves_no_file(self, monkeypatch, tmp_path):
        force_pool(monkeypatch)
        with pytest.raises(RuntimeError, match="unprintable value") as raised:
            write_table(tmp_path / "out.csv", "a,b", self.failing_column(), np.ones(5000))
        assert isinstance(raised.value.__cause__, RemoteTraceback)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_failed_rewrite_keeps_previous_file(self, monkeypatch, tmp_path):
        force_pool(monkeypatch)
        target = tmp_path / "out.csv"
        write_table(target, "a,b", np.array([0]), np.array([1.0]))
        with pytest.raises(RuntimeError, match="unprintable value"):
            write_table(target, "a,b", self.failing_column(), np.ones(5000))
        assert target.read_text() == "a,b\n0,1.0\n"
        assert list(tmp_path.iterdir()) == [target]
        assert multiprocessing.active_children() == []


class TestBulkReader:
    """The one-pass reader accepts and rejects what the per-line parser does."""

    def test_extreme_values_round_trip_bit_exact(self, tmp_path, bulk_only):
        values = np.ones((3, 20))
        values[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
        values[1, :3] = (-5e-324, -1.7976931348623157e308, 2.2250738585072014e-308)
        path = tmp_path / "extreme.csv"
        write_decays(DecaySet(values), path)
        back = read_decays(path).values
        assert np.array_equal(back.view(np.uint64), values.view(np.uint64))

    def test_blank_lines_skipped(self, tmp_path, bulk_only):
        path = tmp_path / "blank.csv"
        noisy = write_corpus(path, 3, 13)
        edit_lines(path, lambda lines: lines.insert(3, ""))
        assert np.array_equal(read_decays(path).values, noisy)

    def test_whitespace_lines_and_text_ids_accepted(self, tmp_path):
        path = tmp_path / "loose.csv"
        noisy = write_corpus(path, 3, 14)

        def edit(lines):
            set_field(lines, 3, "id", "station-7")
            lines.insert(3, "   ")

        edit_lines(path, edit)
        assert np.array_equal(read_decays(path).values, noisy)

    def test_hash_line_is_data_not_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        write_corpus(path, 3, 15)
        edit_lines(path, lambda lines: lines.insert(3, "# operator note"))
        with pytest.raises(DecayFormatError, match="line 4: expected 24 fields"):
            read_decays(path)

    @pytest.mark.parametrize("column,token,message", [
        ("vp_mv", "nan", "line 4, column 'vp_mv': not a number: 'nan'"),
        ("vp_mv", "12V", "line 4, column 'vp_mv': not a number: '12V'"),
        ("vp_mv", "-3.5", "line 4: vp_mv must be > 0 when present, got -3.5"),
        ("label", "x", "line 4, column 'label': not a number: 'x'"),
        ("label", "101", "line 4: label must lie in [0, 100], got 101.0"),
        ("m7", "inf", "line 4: column 'm7': non-finite window value"),
    ], ids=["vp-nan", "vp-text", "vp-negative", "label-text", "label-range", "window-inf"])
    def test_bad_field_names_line_and_column(self, tmp_path, column, token, message):
        path = tmp_path / "bad.csv"
        write_corpus(path, 3, 16)
        edit_lines(path, lambda lines: set_field(lines, 4, column, token))
        with pytest.raises(DecayFormatError) as exc_info:
            read_decays(path)
        assert str(exc_info.value) == f"{path}: {message}"

    def test_short_row_message(self, tmp_path):
        path = tmp_path / "short.csv"
        write_corpus(path, 3, 17)
        edit_lines(path, lambda lines: lines.__setitem__(4, lines[4].rsplit(",", 1)[0]))
        with pytest.raises(DecayFormatError) as exc_info:
            read_decays(path)
        assert str(exc_info.value) == f"{path}: line 5: expected 24 fields (20 windows), got 23"

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_corpus(path, 1, 18)
        edit_lines(path, lambda lines: lines.__delitem__(2))
        with pytest.raises(DecayFormatError, match="no decay rows"):
            read_decays(path)


class TestSynthesizeCorpus:
    def test_pairing_and_determinism(self):
        spec = SyntheticSpec(n=40, noise_sigma=0.5, spike_prob=0.1, seed=21)
        t1, n1 = synthesize_corpus(spec)
        t2, n2 = synthesize_corpus(spec)
        assert np.array_equal(t1, t2)
        assert np.array_equal(n1, n2)
        assert t1.shape == n1.shape == (40, 20)
