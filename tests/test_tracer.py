"""The benchmark tracer (benchmarks/tracer.py) wraps the package's public
functions by name; these checks keep the names it relies on in place."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("ipvae_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_synth_restores_wrappers_and_counts(tmp_path):
    tracer = load_tracer()
    result = tracer.run_traced(["synth", "--n", "50", "--seed", "1", "--out", str(tmp_path)])
    assert result["rc"] == 0
    assert result["restored"]
    spans = result["spans"]
    assert set(tracer.COUNTERS) <= set(spans)
    for (module, cls), methods in tracer.CLASS_METHODS.items():
        assert {f"{module}.{cls}.{m}" for m in methods} <= set(spans)
    assert result["counters"]["data.write_decays.rows"] == 100


def test_traced_train_calls_the_wrapped_mlp_methods(tmp_path):
    # the spans of the Mlp methods count only if training goes through them:
    # each step runs the encoder and the decoder forward and backward once
    tracer = load_tracer()
    corpus = tmp_path / "corpus"
    synth = tracer.run_traced(["synth", "--n", "200", "--seed", "1", "--out", str(corpus)])
    assert synth["rc"] == 0 and synth["restored"]
    result = tracer.run_traced(["train", "--corpus", str(corpus / "contaminated.csv"),
                                "--batch-size", "32", "--seed", "2",
                                "--out", str(tmp_path / "run")])
    assert result["rc"] == 0
    assert result["restored"]
    steps = 200 // 32
    assert result["counters"]["vae.train.steps"] == steps
    spans = result["spans"]
    assert spans["nn.Mlp.forward_cached"]["calls"] == 2 * steps
    assert spans["nn.Mlp.backward"]["calls"] == 2 * steps
    assert spans["nn.adam_step"]["calls"] == steps


def test_traced_bench_goes_through_denoise_matrix(tmp_path):
    # bench denoises its table and its sweep with one denoise_matrix call
    # each, so the benchmark's denoise_matrix span sees the bench's work
    tracer = load_tracer()
    corpus, model = tmp_path / "corpus", tmp_path / "model"
    for argv in (["synth", "--n", "200", "--seed", "1", "--out", str(corpus)],
                 ["train", "--corpus", str(corpus / "contaminated.csv"), "--seed", "2",
                  "--out", str(model)]):
        assert tracer.run_traced(argv)["rc"] == 0
    result = tracer.run_traced(["bench", "--model", str(model / "model.ipvae"),
                                "--n", "300", "--sweep-n", "200", "--realizations", "4",
                                "--seed", "3", "--out", str(tmp_path / "bench")])
    assert result["rc"] == 0
    assert result["restored"]
    span = result["spans"]["analysis.denoise_matrix"]
    assert span["calls"] == 2
    assert span["self_s"] > 0
