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
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis
from . import data as data_mod
from . import vae as vae_mod
from .data import (DecayFormatError, DecaySet, SyntheticSpec, WindowScheme, atomic_open,
                   write_table)
from .vae import ModelFileError, TrainConfig, TrainingDivergedError

EXIT_VALIDATION = 3
EXIT_DIVERGED = 4
EXIT_IO = 5


def _write_json(path, payload: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finish(args, message: str, summary: dict | None = None, **extra) -> int:
    """Every command's last step: write ``summary.json`` (when given) and the
    ``config.json`` echo of the resolved flags, then print ``message``."""
    if summary is not None:
        _write_json(os.path.join(args.out, "summary.json"), summary)
    resolved = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    _write_json(
        os.path.join(args.out, "config.json"),
        {
            "command": args.command,
            "version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "args": resolved,
            **extra,
        },
    )
    print(message)
    return 0


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


# The most noise levels a lo:hi:step sweep may name, checked before they are
# built: bench holds --sweep-n decays per level, 320 KB at the default 2000
# decays of 20 windows (320 MB for 1000 levels).
_MAX_SIGMAS = 1000
# The most decays a bench sweep may hold over all its levels, checked before
# the model is read: the most levels at the default --sweep-n
_MAX_SWEEP_DECAYS = _MAX_SIGMAS * 2000
# The most amplitude bins a density chart may have, checked before the
# corpus is read: each chart's (bins, d) counts and grid take 1.6 MB apiece
# at 20 windows for 10 000 bins
_MAX_BINS = 10_000


def _parse_sigmas(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"expected lo:hi:step, got {text!r}")
        lo, hi, step = parts
        if step <= 0 or hi < lo or not np.isfinite([*parts, (hi - lo) / step]).all():
            raise ValueError(f"bad sigma sweep {text!r}")
        count = int(round((hi - lo) / step))
        if count >= _MAX_SIGMAS:
            raise ValueError(
                f"bad sigma sweep {text!r}: {count + 1} levels, at most {_MAX_SIGMAS}")
        sigmas = tuple(lo + i * step for i in range(count + 1))
        return tuple(s for s in sigmas if s <= hi + 1e-12)
    return tuple(float(p) for p in text.split(","))


def _parse_ks(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _require(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a flag value before any input is read or output written."""
    if not ok:
        raise ValueError(f"{flag} must be {rule}, got {value}")


def _train_config(args, **fields) -> TrainConfig:
    return TrainConfig(seed=args.seed, lr=args.lr, batch_size=args.batch_size,
                       epochs=args.epochs, kl_weight=args.kl_weight, **fields)


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
    # one (n, d) matrix: the truth is written, then contaminated in place
    values = data_mod.generate_ground_truth(spec)
    out = _out_dir(args)
    data_mod.write_decays(DecaySet(values, scheme), os.path.join(out, "ground_truth.csv"))
    data_mod.contaminate_corpus(values, spec)
    data_mod.write_decays(DecaySet(values, scheme), os.path.join(out, "contaminated.csv"))
    return _finish(args, f"synth: wrote {spec.n} decay pairs to {out}")


def cmd_train(args) -> int:
    config = _train_config(args, latent_dim=args.latent, standardize=not args.no_standardize)
    values = data_mod.read_decays(args.corpus).values
    model, curve = vae_mod.train_new(values, config)
    out = _out_dir(args)
    model_path = os.path.join(out, "model.ipvae")
    vae_mod.save(model, model_path)
    write_table(os.path.join(out, "loss_curve.csv"), "step,total,nll,kl",
                np.arange(1, len(curve) + 1), curve)
    smoothed = vae_mod.smooth_curve(curve[:, 0])
    total, nll, kl = analysis.loss_at_convergence(curve)
    summary = {
        "steps": len(curve),
        "final_smoothed_total": float(smoothed[-1]),
        "min_smoothed_total": float(smoothed.min()),
        "converged_total": total,
        "converged_nll": nll,
        "converged_kl": kl,
        "input_offset": model.input_offset,
        "input_scale": model.input_scale,
    }
    return _finish(args, f"train: {len(curve)} steps, model at {model_path}", summary,
                   ae_mode=(args.kl_weight == 0.0))


def cmd_denoise(args) -> int:
    analysis.check_threshold(args.threshold)
    _require(args.realizations >= 2, "--realizations", ">= 2", args.realizations)
    model = vae_mod.load(args.model)
    values = data_mod.read_decays(args.input).values
    analysis.data_range(values)  # a constant decay is rejected before any output

    # each group appends its own results.csv rows where it is decoded, in
    # row order; only its RMSE and peak S/N come back
    def finish(rows, med, lo, hi):
        errs, snrs = analysis.rmse(values[rows], med), analysis.peak_snr(values[rows], med)
        ids = np.arange(rows.start, rows.stop)
        data_mod.append_in_turn(fd, rows, data_mod.table_text(
            [ids, errs, snrs, errs > args.threshold, med, lo, hi]))
        return errs, snrs

    header = ",".join(["id", "rmse_mv_per_v", "peak_snr_db", "outlier"] + [
        f"{band}_m{j + 1}" for band in ("med", "lo", "hi") for j in range(model.input_dim)])
    out = _out_dir(args)
    with atomic_open(os.path.join(out, "results.csv"), "wb") as fh:
        fh.write(f"{header}\n".encode())
        fh.flush()  # before the pool forks
        fd = fh.fileno()
        rmse, snr = analysis.denoise_matrix(model, values[None], args.realizations, args.seed,
                                            finish)
    finite = snr[np.isfinite(snr)]
    n_outliers = int(np.sum(rmse > args.threshold))
    if n_outliers > len(values) / 2:
        print(
            f"warning: {n_outliers} of {len(values)} decays"
            f" ({n_outliers / len(values):.0%}) flagged at {args.threshold} mV/V;"
            f" the median per-decay RMSE, a noise-floor estimate, is"
            f" {float(np.median(rmse)):.3g} mV/V",
            file=sys.stderr,
        )
    return _finish(args, f"denoise: {len(values)} decays, {n_outliers} flagged", {
        "n": len(values),
        "n_outliers": n_outliers,
        "threshold_mv_per_v": args.threshold,
        "mean_rmse_mv_per_v": float(np.mean(rmse)),
        "mean_finite_peak_snr_db": float(finite.mean()) if finite.size else None,
        "n_infinite_peak_snr": int(np.sum(~np.isfinite(snr))),
    })


def cmd_bench(args) -> int:
    _require(args.n >= 1, "--n", ">= 1", args.n)
    _require(args.sweep_n >= 1, "--sweep-n", ">= 1", args.sweep_n)
    _require(args.realizations >= 2, "--realizations", ">= 2", args.realizations)
    _require(0 <= args.sigma < np.inf, "--sigma", "finite and >= 0", args.sigma)
    sigmas = _parse_sigmas(args.sigmas)
    # noise_sweep.csv has one row set per sigma, so none may repeat
    _require(all(0 <= s < np.inf for s in sigmas) and len(set(sigmas)) == len(sigmas) >= 2,
             "--sigmas", "at least two distinct finite values >= 0 to fit a slope",
             repr(args.sigmas))
    _require(len(sigmas) * args.sweep_n <= _MAX_SWEEP_DECAYS, "--sweep-n",
             f"at most {_MAX_SWEEP_DECAYS // len(sigmas)} for {len(sigmas)} noise levels",
             args.sweep_n)
    model = vae_mod.load(args.model)
    methods = analysis.BENCH_METHODS
    table = analysis.denoising_benchmark(
        model, args.n, (args.sigma,), seed=args.seed, n_realizations=args.realizations
    )[args.sigma]
    out = _out_dir(args)
    write_table(
        os.path.join(out, "comparison.csv"),
        "method,mean_rmse_mv_per_v,std_rmse_mv_per_v",
        np.array(methods),
        np.array([table[m] for m in methods]),
    )
    sweep = analysis.denoising_benchmark(
        model,
        args.sweep_n,
        sigmas,
        seed=args.seed + 1,
        n_realizations=args.realizations,
    )
    write_table(
        os.path.join(out, "noise_sweep.csv"),
        "sigma_mv_per_v,method,mean_rmse_mv_per_v,std_rmse_mv_per_v",
        np.repeat(sigmas, len(methods)),
        np.tile(methods, len(sigmas)),
        np.array([sweep[s][m] for s in sigmas for m in methods]),
    )
    slopes = {
        m: analysis.fitted_slope(
            np.asarray(sigmas), np.asarray([sweep[s][m][0] for s in sigmas])
        )
        for m in methods
    }
    return _finish(args, "bench: " + "  ".join(f"{m}={table[m][0]:.3f}" for m in methods), {
        "table_sigma_mv_per_v": args.sigma,
        "table_mean_rmse": {m: table[m][0] for m in methods},
        "sweep_sigmas": list(sigmas),
        "sweep_slopes": slopes,
    })


def cmd_sweep(args) -> int:
    config = _train_config(args)
    ks = _parse_ks(args.ks)
    for k in ks:
        replace(config, latent_dim=k)  # validates each width before any I/O
    _require(len(set(ks)) == len(ks), "--ks", "distinct widths", args.ks)
    _require(args.realizations >= 2, "--realizations", ">= 2", args.realizations)
    values = data_mod.read_decays(args.corpus).values
    rows, models = analysis.latent_sweep(values, ks, config, n_realizations=args.realizations)
    out = _out_dir(args)
    for model in models:
        vae_mod.save(model, os.path.join(out, f"model_k{model.latent_dim}.ipvae"))
    write_table(
        os.path.join(out, "sweep.csv"),
        "latent_dim,nll,kl,train_snr_db,train_rmse_mv_per_v,dlc_diff",
        np.array([r.latent_dim for r in rows]),
        np.array([[r.nll, r.kl, r.train_snr_db, r.train_rmse, r.dlc_diff] for r in rows]),
    )
    message = "sweep: " + "  ".join(f"K={r.latent_dim}:{r.train_rmse:.3f}" for r in rows)
    return _finish(args, message, {
        "ks": list(ks),
        "train_rmse": {str(r.latent_dim): r.train_rmse for r in rows},
        "dlc_diff": {str(r.latent_dim): r.dlc_diff for r in rows},
    })


def cmd_report(args) -> int:
    _require(args.bins >= 1, "--bins", ">= 1", args.bins)
    _require(args.bins <= _MAX_BINS, "--bins", f"at most {_MAX_BINS}", args.bins)
    _require(0.0 < args.bin_width < np.inf, "--bin-width", "finite and > 0", args.bin_width)
    _require(args.realizations >= 2, "--realizations", ">= 2", args.realizations)
    model = vae_mod.load(args.model)
    values = data_mod.read_decays(args.corpus).values

    hist = analysis.survey_snr_histogram(
        values,
        model,
        bin_width_db=args.bin_width,
        n_realizations=args.realizations,
        rng=args.seed,
    )
    mu, _ = vae_mod.encode(model, values)
    # before m_bar is made, so the correlation's (n,) temporaries are never
    # live beside it: a 70k report peaks 0.5 MB lower
    corr = analysis.latent_chargeability_correlation(mu, values)
    m_bar = data_mod.average_chargeability(values)
    corpus_chart = analysis.density_chart(values, bins=args.bins)
    gen_chart = analysis.model_chart(model, len(values), corpus_chart, args.seed + 1)
    dlc = analysis.dlc_difference(gen_chart, corpus_chart)

    # every result is computed before the first file is written, so a
    # rejected corpus leaves no partial report behind
    out = _out_dir(args)
    # sentinel row for perfect reconstructions, so counts still sum to n
    write_table(
        os.path.join(out, "snr_histogram.csv"),
        "bin_low_db,bin_high_db,count",
        np.append(hist.bin_edges[:-1], np.inf),
        np.append(hist.bin_edges[1:], np.inf),
        np.append(hist.counts, hist.inf_count),
    )
    write_table(
        os.path.join(out, "latent_scatter.csv"),
        ",".join(["id", *(f"mu_{k + 1}" for k in range(model.latent_dim)),
                  "avg_chargeability_mv_per_v"]),
        np.arange(len(values)), mu, m_bar,
    )
    for name, chart in (("density_corpus", corpus_chart), ("density_model", gen_chart)):
        lo, hi = chart.amplitude_range
        width = (hi - lo) / chart.bins
        edges = lo + np.arange(chart.bins + 1) * width
        write_table(
            os.path.join(out, f"{name}.csv"),
            ",".join(["bin_low_mv_per_v", "bin_high_mv_per_v",
                      *(f"w{j + 1}" for j in range(model.input_dim))]),
            edges[:-1], edges[1:], chart.grid,
        )
    return _finish(args, f"report: {len(values)} decays summarized in {out}", {
        "n": len(values),
        "histogram_total": hist.total,
        "n_infinite_peak_snr": hist.inf_count,
        "dlc_difference": dlc,
        "latent_chargeability_r": list(corr),
        "amplitude_range_mv_per_v": list(corpus_chart.amplitude_range),
    })


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

    def add_training(p):
        p.add_argument("--kl-weight", type=float, default=1.0,
                       help="KL weight beta; 0 trains a plain autoencoder")
        p.add_argument("--lr", type=float, default=1e-3)
        p.add_argument("--batch-size", type=int, default=32)
        p.add_argument("--epochs", type=int, default=1)

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
    add_training(p)
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
    add_training(p)
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
