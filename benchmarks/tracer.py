"""Run one ipvae CLI command in-process with timing wrappers around its layers.

    python3 benchmarks/tracer.py --spans SPANS.json -- synth --n 1000 --seed 1 --out out/
    python3 benchmarks/tracer.py --fingerprint

The first form installs a wrapper on every public function of the modules
``data``, ``nn``, ``vae``, ``analysis``, ``filters`` and ``cli`` (and on the
``nn.Mlp`` methods), calls ``ipvae.cli.main`` with the given arguments,
restores every original and writes the per-span totals as JSON. The program
source is not modified. The second form prints the numpy/BLAS facts of the
interpreter that runs the program.

Each wrapper is installed under the name the caller looks up: a function
imported by name into another module (``decays_to_matrix`` in ``cli``,
``analysis`` and ``vae``; ``adam_step`` in ``vae``) is wrapped in that module
too, and every wrapper calls the original, so no call is counted twice. A
span is named after the module that defines the function, so all those
wrappers report as one span. A span's self time is its duration minus the
duration of the spans it called.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

MODULES = ("data", "nn", "vae", "analysis", "filters", "cli")
CLASS_METHODS = {("nn", "Mlp"): ("forward", "forward_cached", "backward")}
MB = 2.0**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _dir_mb(path) -> float:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file()) / MB


# --- counters: work done at a span, from its arguments and result -----------

def _count_write_decays(counters, a, result):
    counters["data.write_decays.rows"] += len(a["decays"])
    counters["data.write_decays.mb"] += os.path.getsize(a["path"]) / MB


def _count_read_decays(counters, a, result):
    counters["data.read_decays.rows"] += len(result)


def _count_decode(counters, a, result):
    counters["vae.decode.rows"] += 1 if result.ndim == 1 else result.shape[0]


def _count_tune_batch(counters, a, result):
    from ipvae import filters

    grid = {"MA": filters.MA_GRID, "EMA": filters.EMA_GRID,
            "Butterworth": filters.CUTOFF_GRID}[a["kind"]]
    counters["filters.tune_batch.candidate_rows"] += len(result[0]) * len(grid)


def _count_train(counters, a, result):
    counters["vae.train.steps"] += len(result[1])


def _count_command(counters, a, result):
    counters["cli.mb_written"] += _dir_mb(a["args"].out)


COUNTER_NAMES = (
    "data.write_decays.rows", "data.write_decays.mb", "data.read_decays.rows",
    "vae.decode.rows", "filters.tune_batch.candidate_rows", "vae.train.steps",
    "cli.mb_written",
)
COUNTERS = {
    "data.write_decays": _count_write_decays,
    "data.read_decays": _count_read_decays,
    "vae.decode": _count_decode,
    "filters.tune_batch": _count_tune_batch,
    "vae.train": _count_train,
    **{f"cli.cmd_{c}": _count_command
       for c in ("synth", "train", "denoise", "report", "bench")},
}


class Tracer:
    """Span totals per name, plus the patches needed to undo the wrapping."""

    def __init__(self):
        self.spans: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0.0)
        self._children: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0}
        )
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        children = self._children
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = _maxrss_mb()
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += elapsed
                span["calls"] += 1
                span["total_s"] += elapsed
                span["self_s"] += elapsed - child
                span["rss_rise_mb"] += _maxrss_mb() - rss0
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counters, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        targets = []
        for short in MODULES:
            module = importlib.import_module(f"ipvae.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("ipvae.")):
                    continue
                owner = obj.__module__.rsplit(".", 1)[1]
                targets.append((module, attr, obj, f"{owner}.{obj.__qualname__}"))
        for (short, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"ipvae.{short}"), cls_name)
            for attr in methods:
                targets.append((cls, attr, vars(cls)[attr], f"{short}.{cls_name}.{attr}"))
        for owner, attr, original, name in targets:
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))

    def restore(self) -> bool:
        """Put every original back; True when each wrapper was still in place
        and every original is now restored."""
        intact = all(vars(o)[a] is w for o, a, _, w in self._patches)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        restored = all(vars(o)[a] is orig for o, a, orig, _ in self._patches)
        self._patches.clear()
        return intact and restored


def run_traced(argv: list[str]) -> dict:
    from ipvae import cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        restored = tracer.restore()
    return {
        "argv": argv,
        "rc": rc,
        "wall_s": wall,
        "restored": restored,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", help="write span totals to this JSON file")
    parser.add_argument("--fingerprint", action="store_true",
                        help="print numpy/BLAS facts as JSON and exit")
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="ipvae CLI arguments, after --")
    args = parser.parse_args()
    if args.fingerprint:
        print(json.dumps(fingerprint()))
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not args.spans or not argv:
        parser.error("--spans and the CLI arguments are required")
    result = run_traced(argv)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result["rc"] if result["restored"] else 1


if __name__ == "__main__":
    sys.exit(main())
