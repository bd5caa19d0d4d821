import math

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


class TestContaminate:
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

    def test_unsupported_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            read_decays(tmp_path / "x.bin", format="binary")

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
