"""Self-tests of the benchmark, at smoke size.

    python3 -m pytest -q benchmarks/selftest.py

Run from the repository root. The file name keeps these tests out of the
repository's own test run; they take under a minute.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics that must be non-zero on a workload because its stages run
# that layer, and ones that must be zero because they never do.
RUNS = {
    "ingest-200k": {"synth_decays_per_s", "train_peak_rss_mb",
                    "data.write_decays.self_s", "data.write_decays.rows",
                    "data.write_decays.mb", "data.read_decays.self_s",
                    "data.read_decays.rows", "vae.loss_given_eps.self_s",
                    "nn.adam_step.self_s", "vae.train.steps",
                    "vae.train.steps_per_s", "cli.cmd_synth.self_s",
                    "cli.cmd_train.self_s", "cli.mb_written"},
    "survey-20k": {"denoise_decays_per_s", "report_peak_rss_mb",
                   "data.read_decays.rows", "vae.encode.self_s",
                   "vae.decode.calls", "vae.decode.rows",
                   "vae.sample_matrix.self_s", "analysis.denoise_matrix.self_s",
                   "analysis.survey_snr_histogram.self_s",
                   "cli.cmd_denoise.self_s", "cli.cmd_report.self_s"},
    "bench-default": {"bench_decays_per_s", "bench_peak_rss_mb",
                      "vae.decode.calls", "analysis.denoise_matrix.self_s",
                      "analysis.denoising_benchmark.self_s",
                      "filters.tune_batch.calls",
                      "filters.tune_batch.candidate_rows",
                      "cli.cmd_bench.self_s"},
}
NEVER = {
    "ingest-200k": {"filters.tune_batch.calls", "vae.decode.calls",
                    "analysis.denoise_matrix.self_s", "bench_decays_per_s"},
    "survey-20k": {"vae.train.steps", "filters.tune_batch.calls",
                   "data.write_decays.rows", "train_decays_per_s"},
    "bench-default": {"data.read_decays.rows", "data.write_decays.rows",
                      "vae.train.steps", "denoise_decays_per_s"},
}


def _bench(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-work")


def test_benchmark_json_matches_run_py():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(run.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace, work_dir):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace), "--scale", "smoke",
                   "--work-dir", str(work_dir)])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert all(values[n] > 0 for n in RUNS[workload]), values
        assert all(values[n] == 0 for n in NEVER[workload]), values
    else:
        assert all(v > 0 for v in values.values())
    # every end-to-end metric of the issue is printed by name, with its unit
    for stage in run.workload_stages(workload, run.SCALES["smoke"], 5, None, None):
        assert re.search(rf"^{stage.name}_decays_per_s = [\d.]+ decays/s$",
                         proc.stdout, re.M)
        assert re.search(rf"^{stage.name}_peak_rss_mb = [\d.]+ MB$", proc.stdout, re.M)
    assert re.search(r"^error_rate = 0\.0000 ratio", proc.stdout, re.M)


def test_traced_outputs_match_untraced(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = ["synth", "--n", "300", "--spike-prob", "0.1", "--seed", "9", "--out"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    rc, _, _ = run.spawn([sys.executable, "-m", "ipvae.cli", *args, str(plain)],
                         env, tmp_path / "plain.log")
    assert rc == 0
    rc, _, _ = run.spawn([sys.executable, str(HERE / "tracer.py"), "--spans",
                          str(tmp_path / "spans.json"), "--", *args, str(traced)],
                         env, tmp_path / "traced.log")
    assert rc == 0
    assert run.digests(plain) == run.digests(traced)
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["restored"]
    assert spans["counters"]["data.write_decays.rows"] == 600


def test_tracer_restores_every_wrapper():
    modules = [importlib.import_module(f"ipvae.{m}") for m in tracer.MODULES]
    mlp = importlib.import_module("ipvae.nn").Mlp
    before = [dict(vars(m)) for m in modules + [mlp]]
    t = tracer.Tracer()
    t.install()
    wrapped = {n for m, b in zip(modules + [mlp], before) for n in b
               if vars(m)[n] is not b[n]}
    assert {"read_decays", "decays_to_matrix", "adam_step", "loss_given_eps",
            "decode", "tune_batch", "cmd_denoise", "forward_cached"} <= wrapped
    assert t.restore()
    for owner, snapshot in zip(modules + [mlp], before):
        assert all(vars(owner)[n] is obj for n, obj in snapshot.items())


def test_restore_reports_a_replaced_wrapper():
    from ipvae import data

    original = data.read_decays
    t = tracer.Tracer()
    t.install()
    data.read_decays = lambda *a, **k: None  # patched over the wrapper
    assert not t.restore()
    assert data.read_decays is original


def test_checks_flag_wrong_outputs(tmp_path):
    stage = run.Stage("denoise", (), 3)
    (tmp_path / "results.csv").write_text("id,rmse\n0,1.0\n1,1.0\n")
    (tmp_path / "summary.json").write_text('{"n": 3, "mean_rmse": NaN}')
    problems = run.check_stage(stage, tmp_path)
    assert any("results.csv rows" in p for p in problems)
    assert any("summary.mean_rmse" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "bench-default", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
