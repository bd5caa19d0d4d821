"""Command-line pipeline: synth, train, denoise, bench, sweep, report.

Every command requires an explicit --seed and writes a JSON echo of its
resolved configuration next to its outputs. Data outputs are byte-identical
across reruns with the same flags; wall-clock timestamps appear only in the
config echo.

Exit codes: 0 success, 2 argument errors, 3 validation/format errors,
4 training divergence, 5 I/O failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis
from . import data as data_mod
from . import vae as vae_mod
from .data import DecayFormatError, DecaySet, SyntheticSpec, WindowScheme, atomic_open
from .vae import ModelFileError, TrainConfig, TrainingDivergedError

EXIT_VALIDATION = 3
EXIT_DIVERGED = 4
EXIT_IO = 5


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_rows(path, header: list[str], rows) -> None:
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_config(out_dir, command: str, args: argparse.Namespace, **extra) -> None:
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    _write_json(
        os.path.join(out_dir, "config.json"),
        {
            "command": command,
            "version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "args": resolved,
            **extra,
        },
    )


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_sigmas(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:step, got {text!r}")
        lo, hi, step = parts
        if step <= 0 or hi < lo:
            raise ValueError(f"bad sigma sweep {text!r}")
        count = int(round((hi - lo) / step))
        sigmas = tuple(lo + i * step for i in range(count + 1))
        return tuple(s for s in sigmas if s <= hi + 1e-12)
    return tuple(float(p) for p in text.split(","))


def _parse_ks(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# --- commands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    scheme = WindowScheme(
        delay_ms=args.delay_ms, window_ms=args.window_ms, count=args.windows
    )
    spec = SyntheticSpec(
        n=args.n,
        m0_range=_parse_range(args.m0_range),
        tau_range=_parse_range(args.tau_range),
        c_range=_parse_range(args.c_range),
        noise_sigma=args.noise,
        spike_prob=args.spike_prob,
        seed=args.seed,
        scheme=scheme,
    )
    truth, noisy = data_mod.synthesize_corpus(spec)
    out = _out_dir(args)
    data_mod.write_decays(DecaySet(truth, scheme), os.path.join(out, "ground_truth.csv"))
    data_mod.write_decays(DecaySet(noisy, scheme), os.path.join(out, "contaminated.csv"))
    _echo_config(out, "synth", args)
    print(f"synth: wrote {spec.n} decay pairs to {out}")
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(
        seed=args.seed,
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        kl_weight=args.kl_weight,
        latent_dim=args.latent,
        standardize=not args.no_standardize,
    )
    corpus = data_mod.read_decays(args.corpus)
    model, reports = vae_mod.train_new(corpus.values, config)
    out = _out_dir(args)
    model_path = os.path.join(out, "model.ipvae")
    vae_mod.save(model, model_path)
    _write_rows(
        os.path.join(out, "loss_curve.csv"),
        ["step", "total", "nll", "kl"],
        ([r.step, r.total, r.nll, r.kl] for r in reports),
    )
    smoothed = vae_mod.smooth_curve([r.total for r in reports])
    total, nll, kl = analysis.loss_at_convergence(reports)
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "steps": len(reports),
            "final_smoothed_total": float(smoothed[-1]),
            "min_smoothed_total": float(smoothed.min()),
            "converged_total": total,
            "converged_nll": nll,
            "converged_kl": kl,
            "input_offset": model.input_offset,
            "input_scale": model.input_scale,
        },
    )
    _echo_config(out, "train", args, ae_mode=(args.kl_weight == 0.0))
    print(f"train: {len(reports)} steps, model at {model_path}")
    return 0


def _result_lines(res: analysis.DenoiseResult, chunk: int = 4096):
    """results.csv data lines, formatted like ``data.write_decays`` from
    ``tolist()`` one chunk of rows at a time."""
    for start in range(0, len(res.rmse), chunk):
        part = slice(start, start + chunk)
        bands = np.hstack((res.median[part], res.ci_low[part], res.ci_high[part]))
        for i, err, snr, flag, band in zip(
            range(start, start + chunk), res.rmse[part].tolist(),
            res.peak_snr[part].tolist(), res.outlier[part].tolist(), bands.tolist(),
        ):
            yield f"{i},{err!r},{snr!r},{'1' if flag else '0'},{','.join(map(repr, band))}\n"


def cmd_denoise(args) -> int:
    model = vae_mod.load(args.model)
    values = data_mod.read_decays(args.input).values
    res = analysis.denoise_all(
        model,
        values,
        n_realizations=args.realizations,
        threshold=args.threshold,
        rng=args.seed,
    )
    d = model.input_dim
    header = (
        ["id", "rmse_mv_per_v", "peak_snr_db", "outlier"]
        + [f"med_m{j + 1}" for j in range(d)]
        + [f"lo_m{j + 1}" for j in range(d)]
        + [f"hi_m{j + 1}" for j in range(d)]
    )
    out = _out_dir(args)
    with atomic_open(os.path.join(out, "results.csv")) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_result_lines(res))
    finite = res.peak_snr[np.isfinite(res.peak_snr)]
    n_outliers = int(np.sum(res.outlier))
    if n_outliers > len(values) / 2:
        print(
            f"warning: {n_outliers} of {len(values)} decays"
            f" ({n_outliers / len(values):.0%}) flagged at {args.threshold} mV/V;"
            f" the median per-decay RMSE, a noise-floor estimate, is"
            f" {float(np.median(res.rmse)):.3g} mV/V",
            file=sys.stderr,
        )
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "n": len(values),
            "n_outliers": n_outliers,
            "threshold_mv_per_v": args.threshold,
            "mean_rmse_mv_per_v": float(np.mean(res.rmse)),
            "mean_finite_peak_snr_db": float(finite.mean()) if finite.size else None,
            "n_infinite_peak_snr": int(np.sum(~np.isfinite(res.peak_snr))),
        },
    )
    _echo_config(out, "denoise", args)
    print(f"denoise: {len(values)} decays, {n_outliers} flagged")
    return 0


def cmd_bench(args) -> int:
    model = vae_mod.load(args.model)
    table = analysis.denoising_benchmark(
        model, args.n, (args.sigma,), seed=args.seed, n_realizations=args.realizations
    )[args.sigma]
    out = _out_dir(args)
    _write_rows(
        os.path.join(out, "comparison.csv"),
        ["method", "mean_rmse_mv_per_v", "std_rmse_mv_per_v"],
        ([m, table[m][0], table[m][1]] for m in analysis.BENCH_METHODS),
    )
    sigmas = _parse_sigmas(args.sigmas)
    sweep = analysis.denoising_benchmark(
        model,
        args.sweep_n,
        sigmas,
        seed=args.seed + 1,
        n_realizations=args.realizations,
    )
    _write_rows(
        os.path.join(out, "noise_sweep.csv"),
        ["sigma_mv_per_v", "method", "mean_rmse_mv_per_v", "std_rmse_mv_per_v"],
        (
            [s, m, sweep[s][m][0], sweep[s][m][1]]
            for s in sigmas
            for m in analysis.BENCH_METHODS
        ),
    )
    slopes = {
        m: analysis.fitted_slope(
            np.asarray(sigmas), np.asarray([sweep[s][m][0] for s in sigmas])
        )
        for m in analysis.BENCH_METHODS
    }
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "table_sigma_mv_per_v": args.sigma,
            "table_mean_rmse": {m: table[m][0] for m in analysis.BENCH_METHODS},
            "sweep_sigmas": list(sigmas),
            "sweep_slopes": slopes,
        },
    )
    _echo_config(out, "bench", args)
    print(
        "bench: "
        + "  ".join(f"{m}={table[m][0]:.3f}" for m in analysis.BENCH_METHODS)
    )
    return 0


def cmd_sweep(args) -> int:
    config = TrainConfig(
        seed=args.seed,
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        kl_weight=args.kl_weight,
    )
    corpus = data_mod.read_decays(args.corpus)
    ks = _parse_ks(args.ks)
    rows, models = analysis.latent_sweep(
        corpus.values,
        ks,
        config,
        n_realizations=args.realizations,
        return_models=True,
    )
    out = _out_dir(args)
    for model in models:
        vae_mod.save(model, os.path.join(out, f"model_k{model.latent_dim}.ipvae"))
    _write_rows(
        os.path.join(out, "sweep.csv"),
        ["latent_dim", "nll", "kl", "train_snr_db", "train_rmse_mv_per_v", "dlc_diff"],
        (
            [r.latent_dim, r.nll, r.kl, r.train_snr_db, r.train_rmse, r.dlc_diff]
            for r in rows
        ),
    )
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "ks": list(ks),
            "train_rmse": {str(r.latent_dim): r.train_rmse for r in rows},
            "dlc_diff": {str(r.latent_dim): r.dlc_diff for r in rows},
        },
    )
    _echo_config(out, "sweep", args)
    print("sweep: " + "  ".join(f"K={r.latent_dim}:{r.train_rmse:.3f}" for r in rows))
    return 0


def cmd_report(args) -> int:
    model = vae_mod.load(args.model)
    values = data_mod.read_decays(args.corpus).values
    out = _out_dir(args)

    hist = analysis.survey_snr_histogram(
        values,
        model,
        bin_width_db=args.bin_width,
        n_realizations=args.realizations,
        rng=args.seed,
    )
    hist_rows = [
        [hist.bin_edges[i], hist.bin_edges[i + 1], int(hist.counts[i])]
        for i in range(len(hist.counts))
    ]
    # sentinel row for perfect reconstructions, so counts still sum to n
    hist_rows.append([float("inf"), float("inf"), hist.inf_count])
    _write_rows(
        os.path.join(out, "snr_histogram.csv"),
        ["bin_low_db", "bin_high_db", "count"],
        hist_rows,
    )

    mu, _ = vae_mod.encode(model, values)
    m_bar = data_mod.average_chargeability(values)
    _write_rows(
        os.path.join(out, "latent_scatter.csv"),
        ["id"]
        + [f"mu_{k + 1}" for k in range(model.latent_dim)]
        + ["avg_chargeability_mv_per_v"],
        ([i, *row, avg] for i, (row, avg) in enumerate(zip(mu.tolist(), m_bar.tolist()))),
    )

    amplitude_range = analysis.density_range(values)
    corpus_chart = analysis.density_chart(
        values, bins=args.bins, amplitude_range=amplitude_range
    )
    generated = vae_mod.sample_matrix(
        model, len(values), sigma_scale=1.0, rng=args.seed + 1
    )
    model_chart = analysis.density_chart(
        generated, bins=args.bins, amplitude_range=amplitude_range
    )
    for name, chart in (("density_corpus", corpus_chart), ("density_model", model_chart)):
        lo, hi = chart.amplitude_range
        width = (hi - lo) / chart.bins
        _write_rows(
            os.path.join(out, f"{name}.csv"),
            ["bin_low_mv_per_v", "bin_high_mv_per_v"]
            + [f"w{j + 1}" for j in range(model.input_dim)],
            (
                [lo + b * width, lo + (b + 1) * width] + list(chart.grid[b])
                for b in range(chart.bins)
            ),
        )

    corr = analysis.latent_chargeability_correlation(model, values)
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "n": len(values),
            "histogram_total": hist.total,
            "n_infinite_peak_snr": hist.inf_count,
            "dlc_difference": analysis.dlc_difference(model_chart, corpus_chart),
            "latent_chargeability_r": list(corr),
            "amplitude_range_mv_per_v": list(amplitude_range),
        },
    )
    _echo_config(out, "report", args)
    print(f"report: {len(values)} decays summarized in {out}")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipvae",
        description="Variational-autoencoder pipeline for IP decay curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, required=True,
                       help="RNG seed (required; runs must be reproducible)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic decay corpus")
    p.add_argument("--n", type=int, required=True, help="corpus size")
    p.add_argument("--noise", type=float, default=1.1,
                   help="Gaussian noise std in mV/V (default 1.1)")
    p.add_argument("--spike-prob", type=float, default=0.0,
                   help="per-decay probability of a single-window spike")
    p.add_argument("--m0-range", default="1:50", help="amplitude range lo:hi (mV/V)")
    p.add_argument("--tau-range", default="0.1:1", help="relaxation time range lo:hi (s)")
    p.add_argument("--c-range", default="0.5:1", help="stretching exponent range lo:hi")
    p.add_argument("--windows", type=int, default=20, help="windows per decay")
    p.add_argument("--delay-ms", type=float, default=120.0)
    p.add_argument("--window-ms", type=float, default=40.0)
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a decay corpus")
    p.add_argument("--corpus", required=True, help="decay CSV to train on")
    p.add_argument("--latent", type=int, default=2, help="latent width K (default 2)")
    p.add_argument("--kl-weight", type=float, default=1.0,
                   help="KL weight beta; 0 trains a plain autoencoder")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--no-standardize", action="store_true",
                   help="feed raw mV/V without the affine input transform")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="denoise decays with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="decay CSV to denoise")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--threshold", type=float, default=1.0,
                   help="outlier RMSE threshold in mV/V (default 1.0)")
    add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("bench", help="compare denoisers on model-generated pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=10000, help="pairs for the comparison table")
    p.add_argument("--sigma", type=float, default=1.1,
                   help="noise std for the comparison table (default 1.1)")
    p.add_argument("--sigmas", default="0:3:0.5",
                   help="noise sweep lo:hi:step or comma list")
    p.add_argument("--sweep-n", type=int, default=2000, help="pairs per sweep point")
    p.add_argument("--realizations", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="train and compare several latent widths")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ks", default="1,2,4,6", help="latent widths, comma separated")
    p.add_argument("--kl-weight", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--realizations", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="survey S/N, latent scatter and density charts")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--bin-width", type=float, default=1.0, help="histogram bin width (dB)")
    p.add_argument("--bins", type=int, default=100, help="density chart amplitude bins")
    p.add_argument("--realizations", type=int, default=100)
    add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DecayFormatError, ModelFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
