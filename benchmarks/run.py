"""ipvae benchmark: the README pipeline, stage by stage, untraced and traced.

    python3 benchmarks/run.py --workload ingest-200k --seed 1 --seconds 30 --trace 0

Run from the repository root. Each CLI stage of the chosen workload runs as
its own subprocess, one at a time (a closed loop with one client); this script
records its wall time and peak RSS from ``os.wait4`` and checks its outputs.
Passes over the workload's stages repeat until ``--seconds`` would be
exceeded by the next one (at least one pass) and timings are medians over
passes. With ``--trace 1`` one more pass runs under ``tracer.py``, which wraps
the program's layers in-process; it yields the per-layer metrics and must
write byte-identical outputs.

Inputs derive from ``--seed``. The model used by ``survey-20k`` and
``bench-default`` is the README's (corpus seed 42, ``train --seed 7``); it is
built once per source tree and cached under ``--work-dir``.

stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are the full report. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
BASELINE_DIR = HERE / "baseline"
MB = 2.0**20
SETUP_LAUNCHES = 7

# Sizes per scale. "smoke" runs the same commands and code paths, small.
SCALES = {
    "full": {"ingest_n": 200_000, "survey_n": 20_000, "bench_n": 10_000,
             "sweep_n": 2_000, "model_n": 200_000},
    "smoke": {"ingest_n": 2_000, "survey_n": 400, "bench_n": 400,
              "sweep_n": 100, "model_n": 20_000},
}
WORKLOADS = ("ingest-200k", "survey-20k", "bench-default")
STAGES = ("synth", "train", "denoise", "report", "bench")
BATCH_SIZE = 32  # train default; loss_curve.csv has n // BATCH_SIZE steps
BENCH_SIGMAS = "0:3:0.5"
N_BENCH_SIGMAS = 7
BENCH_METHODS = 5

# (name, unit, better) of every metric printed on the last line with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("decays_per_s", "decays/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


SELF_TIME_SPANS = (
    "data.write_decays", "data.synthesize_corpus", "data.contaminate",
    "data.matrix_to_decays", "data.read_decays", "data.decays_to_matrix",
    "vae.loss_given_eps", "nn.Mlp.forward_cached", "vae.loss_backward",
    "nn.Mlp.backward", "nn.adam_step", "nn.forward", "vae.train",
    "vae.train_new", "vae.encode", "vae.decode", "vae.sample_matrix",
    "analysis.denoise_matrix", "analysis.denoise_all",
    "analysis.survey_snr_histogram", "analysis.denoising_benchmark",
    "filters.tune_batch", "cli.cmd_synth", "cli.cmd_train", "cli.cmd_denoise",
    "cli.cmd_report", "cli.cmd_bench",
)
# (name, unit, better) of every metric printed on the last line with --trace 1.
PER_LAYER = (
    *((f"{st}_decays_per_s", "decays/s", "higher") for st in STAGES),
    *((f"{st}_peak_rss_mb", "MB", "lower") for st in STAGES),
    ("error_rate", "ratio", "lower"),
    *((f"{span}.self_s", "s", "lower") for span in SELF_TIME_SPANS),
    ("data.write_decays.rows", "count", "higher"),
    ("data.write_decays.mb", "MB", "lower"),
    ("data.synthesize_corpus.rss_rise_mb", "MB", "lower"),
    ("data.read_decays.rows", "count", "higher"),
    ("data.read_decays.rss_rise_mb", "MB", "lower"),
    ("vae.train.steps", "count", "higher"),
    ("vae.train.steps_per_s", "1/s", "higher"),
    ("vae.decode.calls", "count", "lower"),
    ("vae.decode.rows", "count", "higher"),
    ("analysis.denoise_matrix.rss_rise_mb", "MB", "lower"),
    ("filters.tune_batch.calls", "count", "lower"),
    ("filters.tune_batch.candidate_rows", "count", "higher"),
    ("cli.mb_written", "MB", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# --- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    name: str
    args: tuple[str, ...]  # CLI arguments; "{pass}" is the pass directory
    decays: int


def workload_stages(workload: str, size: dict, seed: int, model: Path | None,
                    corpus: Path | None) -> list[Stage]:
    """The CLI commands of one pass, in order, as the README runs them."""
    if workload == "ingest-200k":
        n = size["ingest_n"]
        return [
            Stage("synth", ("synth", "--n", str(n), "--noise", "1.1",
                            "--spike-prob", "0.01", "--seed", str(seed),
                            "--out", "{pass}/synth"), n),
            Stage("train", ("train", "--corpus", "{pass}/synth/contaminated.csv",
                            "--seed", "7", "--out", "{pass}/train"), n),
        ]
    if workload == "survey-20k":
        n = size["survey_n"]
        return [
            Stage("denoise", ("denoise", "--model", str(model), "--input",
                              str(corpus), "--realizations", "100",
                              "--threshold", "1.0", "--seed", "3",
                              "--out", "{pass}/denoise"), n),
            Stage("report", ("report", "--model", str(model), "--corpus",
                             str(corpus), "--seed", "13", "--out",
                             "{pass}/report"), n),
        ]
    if workload == "bench-default":
        n, sweep_n = size["bench_n"], size["sweep_n"]
        return [
            Stage("bench", ("bench", "--model", str(model), "--n", str(n),
                            "--sigma", "1.1", "--sigmas", BENCH_SIGMAS,
                            "--sweep-n", str(sweep_n), "--seed", str(seed),
                            "--out", "{pass}/bench"),
                  n + N_BENCH_SIGMAS * sweep_n),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --- output checks -----------------------------------------------------------

def _data_rows(path: Path, header_lines: int) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip()) - header_lines


def _non_finite(value, where: str) -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{where} is {value}"]
    return []


def _summary(out: Path) -> tuple[dict, list[str]]:
    summary = json.loads((out / "summary.json").read_text())
    return summary, _non_finite(summary, "summary")


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def check_stage(stage: Stage, out: Path) -> list[str]:
    """Problems with one stage's outputs; empty when they are right."""
    problems: list[str] = []
    n = stage.decays
    if stage.name == "synth":
        for name in ("ground_truth.csv", "contaminated.csv"):
            _expect(problems, f"{name} rows", _data_rows(out / name, 2), n)
    elif stage.name == "train":
        summary, problems = _summary(out)
        _expect(problems, "loss_curve.csv steps",
                _data_rows(out / "loss_curve.csv", 1), n // BATCH_SIZE)
        _expect(problems, "summary steps", summary["steps"], n // BATCH_SIZE)
        if not (out / "model.ipvae").is_file():
            problems.append("model.ipvae missing")
    elif stage.name == "denoise":
        summary, problems = _summary(out)
        _expect(problems, "results.csv rows", _data_rows(out / "results.csv", 1), n)
        _expect(problems, "summary n", summary["n"], n)
    elif stage.name == "report":
        summary, problems = _summary(out)
        with open(out / "snr_histogram.csv", encoding="utf-8") as fh:
            counts = sum(int(line.rsplit(",", 1)[1]) for line in list(fh)[1:])
        _expect(problems, "S/N histogram total", counts, n)
        _expect(problems, "summary histogram_total", summary["histogram_total"], n)
    elif stage.name == "bench":
        summary, problems = _summary(out)
        with open(out / "comparison.csv", encoding="utf-8") as fh:
            table = {r[0]: float(r[1]) for r in (l.split(",") for l in list(fh)[1:])}
        if not table["ip_vae"] < table["none"]:
            problems.append(f"ip_vae RMSE {table['ip_vae']} not below none {table['none']}")
        _expect(problems, "noise_sweep.csv rows",
                _data_rows(out / "noise_sweep.csv", 1), N_BENCH_SIGMAS * BENCH_METHODS)
    return problems


def digests(out: Path) -> dict[str, str]:
    """sha256 of every data output; config.json carries a timestamp."""
    result = {}
    for path in sorted(out.iterdir()):
        if path.name != "config.json":
            result[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


# --- running -----------------------------------------------------------------

@dataclass
class Run:
    stage: str
    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    digests: dict[str, str] = field(default_factory=dict)
    spans: dict | None = None


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / MB


class Bench:
    def __init__(self, root: Path, work: Path, scale: str):
        self.root = root
        self.work = work
        self.size = SCALES[scale]
        self.scale = scale
        self.source = source_digest(root)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def cli(self, args, log: Path) -> tuple[int, float, float]:
        return spawn([sys.executable, "-m", "ipvae.cli", *args], self.env, log)

    def run_stage(self, stage: Stage, pass_dir: Path, traced: bool) -> Run:
        args = [a.replace("{pass}", str(pass_dir)) for a in stage.args]
        out = Path(args[args.index("--out") + 1])
        log = pass_dir / f"{stage.name}.log"
        pass_dir.mkdir(parents=True, exist_ok=True)
        spans_file = pass_dir / f"{stage.name}.spans.json"
        if traced:
            rc, wall, rss = spawn([sys.executable, str(TRACER), "--spans",
                                   str(spans_file), "--", *args], self.env, log)
        else:
            rc, wall, rss = self.cli(args, log)
        run = Run(stage.name, wall, rss, [])
        if traced and spans_file.is_file():
            run.spans = json.loads(spans_file.read_text())
            if not run.spans["restored"]:
                run.problems.append("tracer left a wrapper installed")
        if rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            run.problems.append(f"exit code {rc}: {' | '.join(tail)}")
            return run
        try:
            run.problems += check_stage(stage, out)
            run.digests = digests(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"output check failed: {exc!r}")
        return run

    def setup_times(self) -> tuple[list[float], list[str]]:
        """Wall times of launching ``ipvae --help``, after one warm-up."""
        times, problems = [], []
        log = self.work / "setup.log"
        for i in range(SETUP_LAUNCHES + 1):
            rc, wall, _ = self.cli(["--help"], log)
            if rc != 0:
                problems.append(f"--help exit code {rc}")
            elif i:
                times.append(wall)
        return times, problems

    def model(self) -> Path:
        """The README model, built once per source tree and scale."""
        cache = self.work.parent / "fixtures" / f"model-{self.scale}-{self.source[:16]}"
        model = cache / "model.ipvae"
        if model.is_file():
            return model
        tmp = self.work / "fixture"
        steps = (
            ["synth", "--n", str(self.size["model_n"]), "--noise", "1.1",
             "--spike-prob", "0.01", "--seed", "42", "--out", str(tmp / "corpus")],
            ["train", "--corpus", str(tmp / "corpus" / "contaminated.csv"),
             "--seed", "7", "--out", str(tmp / "run")],
        )
        for args in steps:
            tmp.mkdir(parents=True, exist_ok=True)
            rc, _, _ = self.cli(args, tmp / "fixture.log")
            if rc != 0:
                raise RuntimeError(f"building the model failed: ipvae {args[0]} exit {rc}")
        cache.mkdir(parents=True, exist_ok=True)
        os.replace(tmp / "run" / "model.ipvae", model)
        shutil.rmtree(tmp)
        return model

    def survey_corpus(self, seed: int) -> Path:
        out = self.work / "input"
        rc, _, _ = self.cli(["synth", "--n", str(self.size["survey_n"]), "--noise", "1.1",
                             "--spike-prob", "0.01", "--seed", str(seed),
                             "--out", str(out)], self.work / "input.log")
        if rc != 0:
            raise RuntimeError(f"synthesizing the survey corpus failed: exit {rc}")
        return out / "contaminated.csv"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(bench: Bench) -> dict:
    def git(*args):
        if not (bench.root / ".git").exists():
            return None
        try:
            return subprocess.run(["git", *args], cwd=bench.root, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    probe = subprocess.run([sys.executable, str(TRACER), "--fingerprint"],
                           capture_output=True, text=True, env=bench.env, check=True)
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(dirty),
        "source_sha256": bench.source,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MB,
        **json.loads(probe.stdout),
    }


# --- aggregation -------------------------------------------------------------

def stage_summary(passes: list[list[Run]]) -> dict:
    out = {}
    for run in passes[0]:
        walls = [r.wall_s for p in passes for r in p if r.stage == run.stage]
        rss = [r.peak_rss_mb for p in passes for r in p if r.stage == run.stage]
        out[run.stage] = {"wall_s": statistics.median(walls), "wall_s_min": min(walls),
                          "wall_s_max": max(walls), "peak_rss_mb": statistics.median(rss),
                          "samples": len(walls)}
    return out


def layer_values(traced: list[Run]) -> tuple[dict, dict]:
    """Span totals and counters summed over the traced stages."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for run in traced:
        if run.spans is None:
            continue
        for name, span in run.spans["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(span, 0.0))
            for k, v in span.items():
                acc[k] += v
        for name, v in run.spans["counters"].items():
            counters[name] = counters.get(name, 0.0) + v
    return spans, counters


def per_layer(traced: list[Run], stages_out: dict, stage_metrics: dict,
              error_rate: float) -> dict[str, float]:
    """Every PER_LAYER value; 0 where the workload never runs the layer."""
    spans, counters = layer_values(traced)
    untraced_wall = sum(stages_out[r.stage]["wall_s"] for r in traced)
    layer = {}
    for name, _, _ in PER_LAYER:
        span, _, fld = name.rpartition(".")
        if name in stage_metrics:
            value = stage_metrics[name]
        elif name.endswith(("_decays_per_s", "_peak_rss_mb")):
            value = 0.0
        elif name == "error_rate":
            value = error_rate
        elif name == "trace.overhead_ratio":
            value = sum(r.wall_s for r in traced) / untraced_wall
        elif name == "vae.train.steps_per_s":
            total = spans.get("vae.train", {}).get("total_s", 0.0)
            value = counters.get("vae.train.steps", 0.0) / total if total else 0.0
        elif fld in ("self_s", "calls", "rss_rise_mb"):
            value = spans.get(span, {}).get(fld, 0.0)
        else:
            value = counters.get(name, 0.0)
        layer[name] = value
    return layer


def top_self(run: Run, k: int = 5) -> list[tuple[str, float]]:
    spans = run.spans["spans"] if run.spans else {}
    ranked = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:k]
    return [(name, round(s["self_s"], 4)) for name, s in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure until the next pass would exceed this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    parser.add_argument("--work-dir", default=".bench_build/ipvae-bench",
                        help="scratch and cache directory (default %(default)s)")
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ipvae" / "cli.py").is_file():
        print(f"error: no ipvae source under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    work = Path(args.work_dir).resolve() / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: Path, work: Path) -> int:
    bench = Bench(root, work, args.scale)
    fingerprint = machine(bench)

    t0 = time.perf_counter()
    model = corpus = None
    if args.workload != "ingest-200k":
        model = bench.model()
    if args.workload == "survey-20k":
        corpus = bench.survey_corpus(args.seed)
    prep_s = time.perf_counter() - t0
    stages = workload_stages(args.workload, bench.size, args.seed, model, corpus)

    setup, problems = bench.setup_times()
    if not setup:
        raise RuntimeError(f"ipvae --help never started: {problems[0]}")
    attempted = SETUP_LAUNCHES + 1
    failed = len(problems)

    passes: list[list[Run]] = []
    start = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        t_pass = time.perf_counter()
        passes.append([bench.run_stage(s, pass_dir, traced=False) for s in stages])
        shutil.rmtree(pass_dir)
        now = time.perf_counter()
        if now - start + (now - t_pass) > args.seconds:
            break
    traced: list[Run] = []
    if args.trace:
        pass_dir = work / "traced"
        traced = [bench.run_stage(s, pass_dir, traced=True) for s in stages]
        shutil.rmtree(pass_dir)

    # determinism: every pass, traced or not, writes the first pass's bytes
    reference = {r.stage: r.digests for r in passes[0]}
    for run in [r for p in passes[1:] for r in p] + traced:
        if run.digests and reference[run.stage] and run.digests != reference[run.stage]:
            run.problems.append("outputs differ from the first untraced pass")
    ledger = (work.parent / "digests" / bench.source[:16]
              / f"{args.workload}-{args.scale}-{args.seed}.json")
    rerun = check_ledger(ledger, reference)
    if rerun:
        passes[0][0].problems.append(rerun)
    for run in [r for p in passes for r in p] + traced:
        attempted += 1
        if run.problems:
            failed += 1
            problems += [f"{run.stage}: {p}" for p in run.problems]

    stages_out = stage_summary(passes)
    error_rate = failed / attempted
    pass_decays = sum(s.decays for s in stages)
    pass_rates = [pass_decays / sum(r.wall_s for r in p) for p in passes]
    e2e = {
        "setup_s": statistics.median(setup),
        "decays_per_s": statistics.median(pass_rates),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in stages_out.values()),
    }
    stage_metrics = {}
    for s in stages:
        stage_metrics[f"{s.name}_decays_per_s"] = s.decays / stages_out[s.name]["wall_s"]
        stage_metrics[f"{s.name}_peak_rss_mb"] = stages_out[s.name]["peak_rss_mb"]

    report = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": fingerprint, "prep_s": prep_s,
        "setup_launches_s": setup, "passes": len(passes),
        "stages": stages_out, "stage_metrics": stage_metrics,
        "end_to_end": e2e, "error_rate": error_rate,
        "attempted": attempted, "failed": failed, "problems": problems,
        "digests": reference,
        "digests_vs_baseline": baseline_diff(args, reference),
    }
    if args.trace:
        layer = per_layer(traced, stages_out, stage_metrics, error_rate)
        report["per_layer"] = layer
        report["top_self_s"] = {r.stage: top_self(r) for r in traced}
        metrics = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u, _ in END_TO_END}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps({**report, "result": result},
                                             indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def check_ledger(ledger: Path, reference: dict) -> str | None:
    """Compare with an earlier run of the same source, workload and seed."""
    if ledger.is_file():
        earlier = json.loads(ledger.read_text())
        if earlier != reference:
            return f"outputs differ from an earlier run of this seed ({ledger})"
        return None
    if all(reference.values()):
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps(reference, sort_keys=True))
    return None


def baseline_diff(args, reference: dict) -> dict:
    """Which output files changed bytes since the checked-in baseline."""
    path = BASELINE_DIR / f"{args.workload}.json"
    if not path.is_file():
        return {"status": "no baseline"}
    base = json.loads(path.read_text())
    if (base["seed"], base["scale"]) != (args.seed, args.scale):
        return {"status": f"baseline is seed {base['seed']} scale {base['scale']}"}
    changed = sorted(f"{stage}/{name}" for stage, files in reference.items()
                     for name, digest in files.items()
                     if base["digests"].get(stage, {}).get(name) != digest)
    return {"status": "changed" if changed else "same", "changed": changed,
            "baseline_sha": base["machine"]["git_sha"]}


def print_report(report: dict) -> None:
    print(f"ipvae benchmark  workload={report['workload']} scale={report['scale']}"
          f" seed={report['seed']} trace={report['trace']} passes={report['passes']}")
    m = report["machine"]
    print(f"machine  nproc={m['nproc']} mem={m['mem_total_mb']:.0f} MB "
          f"python={m['python']} numpy={m['numpy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']} git={m['git_sha']} dirty={m['git_dirty']}")
    for name, s in report["stages"].items():
        print(f"stage {name:8s} wall median {s['wall_s']:.3f} s over {s['samples']}"
              f" (min {s['wall_s_min']:.3f}, max {s['wall_s_max']:.3f})"
              f"  peak RSS {s['peak_rss_mb']:.1f} MB")
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    for name, value in {**report["stage_metrics"], **report["end_to_end"]}.items():
        print(f"{name} = {value:.4f} {units[name]}")
    print(f"error_rate = {report['error_rate']:.4f} ratio"
          f" ({report['failed']} of {report['attempted']} operations failed)")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print(f"digests vs baseline: {report['digests_vs_baseline']['status']}")
    for stage, top in report.get("top_self_s", {}).items():
        print(f"traced {stage}: largest self time " +
              ", ".join(f"{n} {s:.3f} s" for n, s in top))
    print("report " + json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
