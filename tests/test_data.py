import math
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager
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

    @pytest.mark.parametrize("n", [1, 3276, 3277, 10_000])
    def test_first_non_finite_named_in_last_row(self, n):
        """Finiteness is checked in row blocks of 2^16 values (3276 rows of
        20); the message names the first bad column of the first bad row."""
        values = np.ones((n, 20))
        values[-1, [6, 2, 15]] = (np.nan, np.inf, -np.inf)
        with pytest.raises(ValueError, match="^column 'm3': non-finite window value$"):
            DecaySet(values)
        if n > 1:
            values[0, 11] = np.nan
            with pytest.raises(ValueError, match="^column 'm12': non-finite window value$"):
                DecaySet(values)

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


def whole_ground_truth(spec):
    """generate_ground_truth as one formula over the whole corpus."""
    rng = np.random.default_rng(spec.seed)
    m0 = rng.uniform(*spec.m0_range, spec.n)
    tau = rng.uniform(*spec.tau_range, spec.n)
    c = rng.uniform(*spec.c_range, spec.n)
    t = spec.scheme.midpoints_s()
    return m0[:, None] * np.exp(-((t[None, :] / tau[:, None]) ** c[:, None]))


def whole_contaminate(values, noise_sigma, spike_prob, seed):
    """contaminate with the whole (n, d) noise drawn at once."""
    rng = np.random.default_rng(seed)
    n, d = values.shape
    out = values + rng.normal(0.0, noise_sigma, size=(n, d))
    spiked = rng.random(n) < spike_prob
    spike_col = rng.integers(0, d, size=n)
    base = noise_sigma if noise_sigma > 0 else data.SPIKE_FLOOR_MV
    magnitude = rng.uniform(5.0 * base, 10.0 * base, size=n)
    sign = rng.choice((-1.0, 1.0), size=n)
    rows = np.flatnonzero(spiked)
    out[rows, spike_col[rows]] += sign[rows] * magnitude[rows]
    return out


class TestBlockedSynthesis:
    """Row blocks give the bits of the whole-matrix formulas and draws."""

    @pytest.mark.parametrize("n", [1, data._SYNTH_ROWS - 1, data._SYNTH_ROWS,
                                   data._SYNTH_ROWS + 1, 3 * data._SYNTH_ROWS + 7])
    @pytest.mark.parametrize("noise_sigma, spike_prob", [(1.1, 0.3), (0.0, 0.3), (0.7, 0.0)])
    def test_same_bits_as_whole_matrix(self, n, noise_sigma, spike_prob):
        spec = SyntheticSpec(n=n, noise_sigma=noise_sigma, spike_prob=spike_prob, seed=n)
        truth = whole_ground_truth(spec)
        noisy = whole_contaminate(truth, noise_sigma, spike_prob, spec.seed + 1)
        values = generate_ground_truth(spec)
        assert values.tobytes() == truth.tobytes()
        data.contaminate_corpus(values, spec)
        assert values.tobytes() == noisy.tobytes()
        pair = synthesize_corpus(spec)
        assert pair[0].tobytes() == truth.tobytes() and pair[1].tobytes() == noisy.tobytes()
        kept = truth.copy()
        out = contaminate(truth, noise_sigma, spike_prob, seed=spec.seed + 1)
        assert out.tobytes() == noisy.tobytes()
        assert truth.tobytes() == kept.tobytes() and not np.shares_memory(out, truth)

    def test_contaminate_copies_any_layout(self):
        truth = generate_ground_truth(SyntheticSpec(n=300, seed=8))
        fortran = np.asfortranarray(truth)
        out = contaminate(fortran, 0.5, 0.2, seed=3)
        assert out.flags.c_contiguous
        assert out.tobytes() == whole_contaminate(truth, 0.5, 0.2, 3).tobytes()
        assert np.array_equal(fortran, truth)


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


def per_value_text(*columns):
    """Table body spelled one value at a time: ``repr`` of each float, NaN
    empty, ``str`` of every other value, bools as 1/0."""
    def cells(column):
        column = np.asarray(column)
        column = column.reshape(len(column), -1)
        if column.dtype.kind == "b":
            column = column.astype(np.uint8)
        fmt = repr if column.dtype.kind == "f" else str
        return [["" if v != v else fmt(v) for v in row] for row in column.tolist()]

    rows = zip(*map(cells, columns))
    return "".join(",".join(c for part in row for c in part) + "\n" for row in rows)


def written_body(tmp_path, *columns):
    names = ",".join(f"c{j}" for j in range(sum(
        1 if np.ndim(c) == 1 else np.shape(c)[1] for c in columns)))
    write_table(tmp_path / "t.csv", names, *columns)
    return (tmp_path / "t.csv").read_text(encoding="utf-8").split("\n", 1)[1]


def assert_same_text(got, want):
    """``got == want``, reporting only the first line that differs: pytest's
    own diff of two long tables takes minutes."""
    if got != want:
        got, want = got.split("\n"), want.split("\n")
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"first difference in line {i}: {got[i:i + 1]} != {want[i:i + 1]}")


def float_bits(sign, exponent, mantissa):
    """float64 values from their sign, biased exponent and mantissa fields."""
    sign, exponent, mantissa = (np.asarray(a).astype(np.uint64)
                                for a in (sign, exponent, mantissa))
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)


def edge_floats():
    """Subnormals, the largest float, powers of 2 and of 10 with their
    neighbours, the fixed-notation switches and the fast path's bounds."""
    tiny = np.nextafter(0.0, 1.0)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             np.array([float(f"1e{e}") for e in range(-323, 309)])])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    special = [tiny, 2 * tiny, 3 * tiny, 5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, np.finfo(float).max, 1e-3, 1e-4, 2.0**52, 2.0**53,
               1e16, 0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, 0.2, 0.3, 1 / 3, 120.5,
               9.999999999999999e-4, 4503599627370495.5, 4503599627370495.0, 1e15,
               999999999999999.9, 0.001000000000000001]
    x = np.concatenate([powers, special])
    return np.concatenate([x, -x, np.nextafter(x, 1.0), np.nextafter(x, -1.0)])


class TestExactText:
    """Every number's text is byte-equal to its own repr/str, whichever
    path of the chunk formatter it takes."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(101)
        x = rng.integers(0, 2**64, 1_010_000, dtype=np.uint64, endpoint=False).view(np.float64)
        x = x[np.isfinite(x)][:10**6].reshape(-1, 8)
        assert_same_text(written_body(tmp_path, x), per_value_text(x))

    def test_random_patterns_in_fast_domain(self, tmp_path):
        rng = np.random.default_rng(102)
        n = 400_000
        # biased exponents of 2**-10 to 2**51, every mantissa field
        x = float_bits(rng.integers(0, 2, n), rng.integers(1013, 1075, n),
                       rng.integers(0, 2**52, n, dtype=np.uint64)).reshape(-1, 4)
        assert_same_text(written_body(tmp_path, x), per_value_text(x))

    def test_short_decimals_and_mantissas(self, tmp_path):
        rng = np.random.default_rng(103)
        n = 200_000
        decimals = rng.integers(-10**8, 10**8, n) / 10.0 ** rng.integers(0, 12, n)
        mantissas = rng.integers(-2**20, 2**20, n) * 2.0 ** rng.integers(-40, 40, n)
        rounded = np.round(rng.uniform(-1e4, 1e4, n), 3)
        assert_same_text(written_body(tmp_path, decimals, mantissas, rounded),
                         per_value_text(decimals, mantissas, rounded))

    def test_edge_values(self, tmp_path):
        x = edge_floats()
        assert_same_text(written_body(tmp_path, x), per_value_text(x))
        with np.errstate(over="ignore"):
            x = x.astype(np.float32)
        assert_same_text(written_body(tmp_path, x), per_value_text(x))

    def test_integers(self, tmp_path):
        i64 = np.iinfo(np.int64)
        near = np.array([0, 1, 9, 10, 99, 10**15 - 1, 10**15, 10**16 - 1, 10**16, 10**17,
                         i64.max, 2**53, 2**53 + 1])
        ints = np.concatenate([near, -near, [i64.min], -np.arange(1000)])
        rng = np.random.default_rng(104)
        ints = np.concatenate([ints, rng.integers(i64.min, i64.max, 10_000)])
        big = np.array([0, 1, 10**16, 2**63, 2**64 - 1], dtype=np.uint64)
        small = np.arange(256).astype(np.uint8)
        for column in (ints, big, small, ints.astype(np.int32), small.astype(bool)):
            assert_same_text(written_body(tmp_path, column), per_value_text(column))

    def test_mixed_row_layout(self, tmp_path):
        n = 5000
        columns = mixed_columns(n)
        assert_same_text(written_body(tmp_path, *columns), per_value_text(*columns))

    @pytest.mark.parametrize("cells", [1, 7, 2**15])
    def test_bytes_do_not_depend_on_chunk_size(self, monkeypatch, tmp_path, cells):
        columns = (*mixed_columns(1000), edge_floats()[::9][:1000])
        expected = per_value_text(*columns)
        monkeypatch.setattr(data, "_CHUNK_CELLS", cells)
        assert_same_text(written_body(tmp_path, *columns), expected)

    def test_empty_float_columns(self, monkeypatch, tmp_path):
        # float columns empty throughout or in some chunks only, at the
        # start, middle and end of a float block, and a block all empty
        n = 3000
        x = np.random.default_rng(105).normal(size=(n, 7))
        x[:, [0, 3, 6]] = np.nan
        x[:1000, 1] = np.nan
        x[2000:, 5] = np.nan
        columns = (np.arange(n), x[:, 0], x[:, 1:], np.arange(n), np.full(n, np.nan))
        monkeypatch.setattr(data, "_CHUNK_CELLS", 10 * 1000)  # 1000-row chunks
        assert_same_text(written_body(tmp_path, *columns), per_value_text(*columns))

    def test_non_ascii_and_object_cells(self, tmp_path):
        names = np.array(["é", "ip_vae", "", "日本"])
        objects = np.array([1.5, None, "x", 2**70], dtype=object)
        assert written_body(tmp_path, names, objects, np.arange(4)) == (
            "é,1.5,0\nip_vae,None,1\n,x,2\n日本,1180591620717411303424,3\n")


def force_serial(m):
    m.setattr(data, "_usable_cpus", lambda: 1)


def force_pool(m):
    """Format every table of two or more chunks in a pool of three workers
    (more than some hosts have cores), and fail if a chunk of such a table
    is formatted in the calling process."""
    parent, table_text = os.getpid(), data.table_text

    def in_worker(columns, rows):
        if os.getpid() == parent and len(columns[0]) > data._CHUNK_ROWS:
            raise AssertionError("chunk formatted outside the pool")
        return table_text(columns, rows)

    m.setattr(data, "_usable_cpus", lambda: 3)
    m.setattr(data, "_PARALLEL_MIN_CELLS", 0)
    m.setattr(data, "table_text", in_worker)


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


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs longer than
    ``seconds``, so a hang fails the test instead of stopping the suite."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_many_small_chunks_same_bytes(self, monkeypatch, tmp_path):
        """1000 chunks of 3 rows, of irregular length, on 3 workers: each
        chunk's offset is handed on from the chunk before it, across
        processes, and a lost or misordered hand-off would move its text."""
        header = "id,meta,x1,x2,x3,f32,flag,int,u8,name,last"
        monkeypatch.setattr(data, "_CHUNK_CELLS", 3 * 11)
        with deadline(60):
            serial, pooled = serial_and_pooled_bytes(
                monkeypatch, tmp_path, lambda path: write_table(path, header, *mixed_columns(3000))
            )
        assert pooled == serial
        assert multiprocessing.active_children() == []

    def test_same_bytes_without_pwrite(self, monkeypatch, tmp_path):
        """Chunks are appended in turn, so no positioned write is needed."""
        monkeypatch.delattr(os, "pwrite")
        header = "id,meta,x1,x2,x3,f32,flag,int,u8,name,last"
        columns = mixed_columns(3 * 4096 + 1)
        serial, pooled = serial_and_pooled_bytes(
            monkeypatch, tmp_path, lambda path: write_table(path, header, *columns)
        )
        assert pooled == serial

    def test_zero_rows_write_the_header_alone(self, monkeypatch, tmp_path):
        serial, pooled = serial_and_pooled_bytes(
            monkeypatch, tmp_path,
            lambda path: write_table(path, "# c\na,b", np.arange(0), np.ones(0)),
        )
        assert serial == pooled == b"# c\na,b\n"

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

    def test_parent_holds_no_chunk_text(self, monkeypatch, tmp_path):
        """A pooled decay file of 20k decays (480k cells, 15 chunks on 3
        workers) is formatted and written by the workers: the parent's
        traced peak stays below the text of its smallest chunk."""
        _, noisy = synthesize_corpus(SyntheticSpec(n=20_000, seed=5))
        decays, path = DecaySet(noisy), tmp_path / "decays.csv"
        assert noisy.size + 4 * len(noisy) >= data._PARALLEL_MIN_CELLS
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        write_decays(decays, path)  # the first pool imports multiprocessing's modules
        tracemalloc.start()
        try:
            write_decays(decays, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lengths = np.cumsum([0] + [len(line) for line in path.read_bytes().splitlines(True)[2:]])
        ranges = data._split_rows(len(noisy), data._CHUNK_CELLS // 24)
        chunks = [lengths[rows.stop] - lengths[rows.start] for rows in ranges]
        assert len(chunks) == 15 and min(chunks) > 4 * 10**5
        assert peak < min(chunks)
        assert multiprocessing.active_children() == []

    def test_workers_gone_after_write(self, monkeypatch, tmp_path):
        force_pool(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            write_table(tmp_path / "t.csv", "a", np.arange(10_000))
        # Python 3.12 warns when it forks a process that runs threads
        assert [w for w in caught if "fork" in str(w.message)] == []
        assert multiprocessing.active_children() == []


def range_rows(shared, rows):
    return rows.stop - rows.start, os.getpid()


def count_fork_checks(m):
    """Count the calls of ``data._fork_context``, which keeps its answer."""
    fork_context, calls = data._fork_context, []

    def counted():
        calls.append(None)
        return fork_context()

    m.setattr(data, "_fork_context", counted)
    return calls


class TestRowRanges:
    """Tables and denoising calls are cut into the fewest balanced row
    ranges, and one pool runs them."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 4097, 12_289])
    @pytest.mark.parametrize("parts", [1, 2, 3, 6])
    @pytest.mark.parametrize("unit", [1, 8, 4096])
    def test_split_rows_balanced_whole_blocks(self, n, parts, unit):
        """At most ``parts`` blocks of ``unit`` rows per range: the fewest
        such ranges, contiguous, their sizes within one of each other."""
        max_rows = parts * unit
        ranges = data._split_rows(n, max_rows)
        assert len(ranges) == -(-n // max_rows)
        assert [r.start for r in ranges[1:]] == [r.stop for r in ranges[:-1]]
        if n:
            assert ranges[0].start == 0 and ranges[-1].stop == n
        sizes = [r.stop - r.start for r in ranges]
        assert all(0 < size <= max_rows for size in sizes)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    @pytest.mark.parametrize("n, cpus, sizes", [
        (4096, 2, [4096]),
        (4097, 2, [2048, 2049]),
        (12_289, 2, [3072, 3072, 3072, 3073]),
        (12_289, 3, [3072, 3072, 3072, 3073]),
    ])
    def test_pooled_table_in_equal_ranges(self, monkeypatch, n, cpus, sizes):
        """One task per range, on one worker per CPU and at most one per
        range, after one fork check; a single range runs here, unchecked."""
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        checks = count_fork_checks(monkeypatch)
        ranges = data._split_rows(n, data._CHUNK_ROWS)
        with data._map_rows(range_rows, None, ranges, pooled=True) as results:
            got, pids = zip(*results)
        assert list(got) == sizes
        workers = min(cpus, len(sizes))
        assert len(checks) == (workers > 1)
        if workers > 1:
            assert os.getpid() not in pids and len(set(pids)) <= workers
        else:
            assert set(pids) == {os.getpid()}
        assert multiprocessing.active_children() == []

    def test_pooled_table_checks_fork_once(self, monkeypatch, tmp_path):
        """write_table leaves the pool decision to _map_rows."""
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        checks = count_fork_checks(monkeypatch)
        write_table(tmp_path / "t.csv", "a,b", np.arange(200_000), np.ones(200_000))
        assert len(checks) == 1
        assert multiprocessing.active_children() == []

    def test_serial_table_in_equal_ranges(self, monkeypatch):
        monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
        checks = count_fork_checks(monkeypatch)
        ranges = data._split_rows(4097, data._CHUNK_ROWS)
        with data._map_rows(range_rows, None, ranges, pooled=False) as results:
            assert list(results) == [(2048, os.getpid()), (2049, os.getpid())]
        assert checks == []


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

    @pytest.mark.parametrize("chunk", [0, 3, 5])
    def test_failed_chunk_releases_every_worker(self, monkeypatch, tmp_path, chunk):
        """The first, a middle or the last of 6 chunks fails on one of 3
        workers; the chunks that wait for its end stop waiting, the error
        reaches the caller, and no file, temporary file or worker is left."""
        column = np.arange(6 * 4096).astype(object)
        column[chunk * 4096 + 100] = self.Unprintable()
        force_pool(monkeypatch)
        assert len(data._split_rows(len(column), data._CHUNK_ROWS)) == 6
        with deadline(60), pytest.raises(RuntimeError, match="unprintable value") as raised:
            write_table(tmp_path / "out.csv", "a,b", column, np.ones(len(column)))
        assert isinstance(raised.value.__cause__, RemoteTraceback)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_interrupt_releases_every_worker(self, monkeypatch, tmp_path):
        """Ctrl-C while the third chunk waits for the second, which is then
        skipped: the interrupt reaches the caller, the waiting worker is
        released, and no file, temporary file or worker is left."""
        force_pool(monkeypatch)
        parent, table_text = os.getpid(), data.table_text

        def interrupting(columns, rows):
            if rows.start == 0:
                time.sleep(0.2)  # the third chunk is formatted and waits
                os.kill(parent, signal.SIGINT)
            return table_text(columns, rows)

        monkeypatch.setattr(data, "table_text", interrupting)
        monkeypatch.setattr(data, "_run_adopted", late_second_chunk)
        with deadline(60), pytest.raises(KeyboardInterrupt):
            write_table(tmp_path / "out.csv", "a,b", np.arange(6 * 4096), np.ones(6 * 4096))
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


run_adopted = data._run_adopted


def late_second_chunk(rows):
    """``data._run_adopted``, but the worker given the second 4096-row chunk
    looks at the stop event a second late, and so skips the chunk."""
    if rows.start == 4096:
        time.sleep(1)
    return run_adopted(rows)


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

    def test_per_line_rows_checked_once(self, tmp_path, monkeypatch):
        path = tmp_path / "loose.csv"
        noisy = write_corpus(path, 5, 14)

        def edit(lines):
            for line_no in range(3, 8):
                set_field(lines, line_no, "id", f"st-{line_no}")
            lines.insert(4, "   ")

        edit_lines(path, edit)
        calls = []
        decay_set = data._decay_set
        monkeypatch.setattr(data, "_decay_set", lambda *a: calls.append(1) or decay_set(*a))
        assert np.array_equal(read_decays(path).values, noisy)
        assert len(calls) == 1

    @pytest.mark.parametrize("blanks", [0, 1, 3])
    def test_rule_fault_names_its_line_past_blank_lines(self, tmp_path, blanks):
        """Text ids send the file to the per-line parser, which checks the
        rows together and then finds the first row that breaks a rule."""
        path = tmp_path / "bad.csv"
        write_corpus(path, 40, 16)

        def edit(lines):
            set_field(lines, 3, "id", "st-0")
            set_field(lines, 30, "m2", "inf")
            set_field(lines, 35, "vp_mv", "-1")
            for _ in range(blanks):
                lines.insert(10, "")
            lines.insert(40, " ")  # after the bad rows: moves neither

        edit_lines(path, edit)
        with pytest.raises(DecayFormatError) as exc_info:
            read_decays(path)
        assert str(exc_info.value) == (
            f"{path}: line {30 + blanks}: column 'm2': non-finite window value")

    def test_rule_fault_before_unparsable_line_reported_first(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_corpus(path, 10, 16)

        def edit(lines):
            set_field(lines, 6, "label", "101")
            set_field(lines, 9, "m3", "abc")

        edit_lines(path, edit)
        with pytest.raises(DecayFormatError) as exc_info:
            read_decays(path)
        assert str(exc_info.value) == f"{path}: line 6: label must lie in [0, 100], got 101.0"

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

    def test_rejected_bulk_table_freed_before_re_read(self, tmp_path, monkeypatch):
        """A table that the bulk pass parsed and DecaySet's rules rejected
        is freed before the per-line parser reads the file again."""
        path = tmp_path / "bad.csv"
        write_corpus(path, 3, 16)
        edit_lines(path, lambda lines: set_field(lines, 4, "m7", "inf"))
        parsed, alive = [], []
        loadtxt, read_lines = np.loadtxt, data._read_lines

        def bulk(*args, **kwargs):
            table = loadtxt(*args, **kwargs)
            parsed.append(weakref.ref(table))
            return table

        def per_line(*args):
            alive.append(parsed[0]() is not None)
            return read_lines(*args)

        monkeypatch.setattr(np, "loadtxt", bulk)
        monkeypatch.setattr(data, "_read_lines", per_line)
        with pytest.raises(DecayFormatError) as exc_info:
            read_decays(path)
        assert str(exc_info.value) == f"{path}: line 4: column 'm7': non-finite window value"
        assert len(parsed) == 1 and alive == [False]

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

    def test_window_columns_copied_once(self):
        """The window columns, in any order in the file, are moved to the
        front of the parsed table, row block by row block, and the table
        shrinks to them: DecaySet keeps the table itself as its values, so
        no second (n, d) array is made, and no column is a view."""
        columns = [f"m{j}" for j in range(20, 0, -1)] + list(data._META_COLUMNS)
        for n in (1, 2, 1638, 1639, 60_000):  # blocks of 2**15 // 20 rows
            table = np.random.default_rng(19).uniform(1.0, 50.0, (n, len(columns)))
            expected = table.copy()
            tracemalloc.start()
            try:
                decays = data._decay_set(table, columns, data.DEFAULT_SCHEME)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert decays.values is table and table.base is None
            assert table.shape == (n, 20) and table.flags.c_contiguous
            assert np.array_equal(decays.values, expected[:, 19::-1])
            assert np.array_equal(decays.label, expected[:, -1])
            assert all(getattr(decays, name).base is None for name in data._META_COLUMNS[1:])
            if n > 2:  # below that, fixed overheads outweigh the rows
                assert peak < 1.5 * decays.values.nbytes


class TestSynthesizeCorpus:
    def test_pairing_and_determinism(self):
        spec = SyntheticSpec(n=40, noise_sigma=0.5, spike_prob=0.1, seed=21)
        t1, n1 = synthesize_corpus(spec)
        t2, n2 = synthesize_corpus(spec)
        assert np.array_equal(t1, t2)
        assert np.array_equal(n1, n2)
        assert t1.shape == n1.shape == (40, 20)
