"""tadualcv benchmark: timed passes over seeded workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload cohort_m --seed 0 --seconds 52 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 52 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / "work"

# Fixed on both sides of every comparison, and never above nproc.
BLAS_THREADS = 1
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_SECONDS have
# passed; a short set-up needs many samples for a steady median.
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 3.0

# End-to-end metrics gated in BENCHMARK.json; the last output line holds them.
END_TO_END = [
    ("wall_s", "s"),
    ("macro_nrmse", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# Printed with them but not gated. For a given seed cells_per_s is a fixed
# count divided by wall_s, so it moves exactly with wall_s; failed_frac is 0
# on a correct program and travels in the last line as failed / attempted.
REPORTED_ONLY = [
    ("cells_per_s", "cells/s"),
    ("failed_frac", "1"),
]


def _pin_threads() -> None:
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_package():
    """Put the checkout's own sources first on the path and import them."""
    if not (SRC / "tadualcv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tadualcv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tadualcv

    if Path(tadualcv.__file__).resolve().parent != SRC / "tadualcv":
        raise SystemExit(f"perfbench: imported tadualcv from {tadualcv.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _code_digest() -> str:
    """Digest of the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tadualcv").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _high_percentile(samples: list[float]):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _check_canaries(key: str, counts: dict) -> list[str]:
    """Compare exact counts with earlier runs of the same seed and code."""
    path = OUT / "canaries.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    entry = known.setdefault(key, {})
    errors = [
        f"count {name} drifted: {entry[name]} before, {value} now"
        for name, value in counts.items()
        if name in entry and entry[name] != value
    ]
    entry.update({k: v for k, v in counts.items() if k not in entry})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Set up one workload, run timed passes for ``seconds``, check them.

    Untraced: passes run with tracing off until the next one would end past
    ``seconds``. Traced: untraced and traced passes alternate the same way,
    at least one of each; per-layer times are medians over traced passes.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    errors: list[str] = []
    try:
        setup_times, counts = [], {}
        setup_budget = 0.0 if smoke else SETUP_SECONDS
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < setup_budget:
            k = len(setup_times)
            if tracer:
                tracer.pass_id = f"setup-{k}"
                tracing.install(tracer)
            start = perf_counter()
            inputs = workloads.setup(workload, seed, workdir, smoke, tracer)
            setup_times.append(perf_counter() - start)
            if tracer:
                tracer.uninstall()
            setup_counts = {"masked_cells": len(inputs.mask), "holes": inputs.holes}
            errors += [
                f"set-up {k}: {c} = {v}, set-up 0 had {counts[c]}"
                for c, v in setup_counts.items()
                if counts.setdefault(c, v) != v
            ]
        workloads.load_reference(workload, inputs)

        walls = {False: [], True: []}
        layers, macros, attempted, failed = [], [], 0, 0
        elapsed = last = 0.0
        traced = False
        while attempted < (2 if trace else 1) or elapsed + last <= seconds:
            if trace and attempted:
                traced = not traced
            gc.collect()
            began = perf_counter()
            attempted += 1
            if traced:
                tracer.pass_id = attempted
                tracing.install(tracer)
            try:
                result = workloads.run_pass(workload, inputs, tracer if traced else None)
            except Exception as exc:  # a raising program is a failed pass, not a crash
                traceback.print_exc()
                result = workloads.PassResult(float("nan"), float("nan"), [f"raised {exc!r}"])
            finally:
                if traced:
                    tracer.uninstall()
            if macros and not result.errors and result.macro_nrmse != macros[0]:
                result.errors.append(
                    f"macro_nrmse {result.macro_nrmse!r} != first pass {macros[0]!r}"
                )
            if result.errors:
                failed += 1
                errors += [f"pass {attempted}: {e}" for e in result.errors]
            else:
                macros.append(result.macro_nrmse)
                walls[traced].append(result.wall_s)
                if traced:
                    layer = tracing.layer_metrics(tracer.spans, attempted)
                    errors += [
                        f"pass {attempted}: {c} = {layer[c]}, an earlier pass had {counts[c]}"
                        for c in tracing.EXACT_COUNTS
                        if counts.setdefault(c, layer[c]) != layer[c]
                    ]
                    layers.append(layer)
            last = perf_counter() - began
            elapsed += last
        if workload.via_cli and not failed:
            written = sum(p.stat().st_size for p in workdir.glob("imputed*.csv"))
            if counts.setdefault("io_formats.bytes_written", written) != written:
                traced_bytes = counts["io_formats.bytes_written"]
                errors.append(f"output files hold {written} B, traced passes {traced_bytes} B")
        if not smoke:
            errors += _check_canaries(f"{name}:seed{seed}:code-{_code_digest()}", counts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = walls[False]
    wall = statistics.median(untraced) if untraced else 0.0
    result = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "recheck_seed": workloads.RECHECK_SEED,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "counts": counts,
        "samples": {
            "wall_s": untraced,
            "traced_wall_s": walls[True],
            "setup_s": setup_times,
        },
    }
    if not trace:
        result["metrics"] = {
            "wall_s": wall,
            "cells_per_s": inputs.holes / wall if wall else 0.0,
            "macro_nrmse": macros[0] if macros else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_frac": failed / attempted,
        }
        result["wall_high_percentile"] = _high_percentile(untraced)
    else:
        result["metrics"] = _per_layer(tracer, layers, walls)
        if layers:
            traced_wall = statistics.median(walls[True])
            result["purpose"] = workloads.purpose(workload, result["metrics"], traced_wall)
        if not smoke:
            _write_spans(tracer, name, seed)
    result["units"] = dict(tracing.PER_LAYER if trace else END_TO_END + REPORTED_ONLY)
    return result


def _per_layer(tracer, layers, walls) -> dict:
    """Medians over traced passes and set-ups, plus the tracing overhead."""
    metrics = {}
    for key in layers[0] if layers else []:
        metrics[key] = statistics.median(layer[key] for layer in layers)
    for key, span_name in tracing.SETUP_METRICS.items():
        per_setup = {}
        for name, start, end, _, pass_id, _ in tracer.spans:
            if name == span_name:
                per_setup[pass_id] = per_setup.get(pass_id, 0.0) + end - start
        metrics[key] = statistics.median(per_setup.values())
    if walls[True] and walls[False]:
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        metrics["trace_overhead_frac"] = overhead
    return {name: metrics.get(name, 0.0) for name, _ in tracing.PER_LAYER}


def _write_spans(tracer, name, seed) -> None:
    path = OUT / f"{name}-seed{seed}-spans.json"
    with open(path, "w") as fh:
        fh.write('{"fields": ["name", "start", "end", "parent", "pass", "info"], "spans": [\n')
        fh.write(",\n".join(json.dumps(s, separators=(",", ":")) for s in tracer.spans))
        fh.write("\n]}\n")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Human-readable lines; the JSON line comes after them."""
    n = len(result["samples"]["wall_s"])
    seeds = f"seed {result['seed']} (re-check seed {result['recheck_seed']})"
    head = f"== {result['workload']}  {seeds}"
    print(f"{head}  {'traced' if result['trace'] else 'untraced'}  passes {result['attempted']}")
    units = result["units"]
    for key, value in result["metrics"].items():
        note = ""
        if key == "wall_s":
            high = result["wall_high_percentile"]
            tail = f", p{high[0]} {high[1]:.6g} s" if high else "; too few for a tail percentile"
            note = f"  (median of {n} passes{tail})"
        elif key == "setup_s":
            note = f"  (median of {len(result['samples']['setup_s'])} set-ups)"
        elif key == "failed_frac":
            note = f"  ({result['failed']} of {result['attempted']} passes)"
        print(f"  {key:<40} {_fmt(value):>14} {units[key]}{note}")
    if result.get("purpose"):
        text, ok = result["purpose"]
        print(f"  purpose: {text}: {'yes' if ok else 'NO'}")
    for error in result["errors"]:
        print(f"  ERROR {error}", file=sys.stderr)


def _result_line(result: dict) -> str:
    names = [name for name, _ in (tracing.PER_LAYER if result["trace"] else END_TO_END)]
    return json.dumps(
        {
            "correct": not result["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": result["metrics"][k], "unit": result["units"][k]} for k in names
            },
        }
    )


def _metrics_ok(result: dict, names: list) -> list[str]:
    problems = []
    for name, unit in names:
        entry = result["metrics"].get(name)
        if entry is None or result["units"].get(name) != unit:
            problems.append(f"{result['workload']}: {name} missing or without unit {unit}")
        elif not math.isfinite(entry):
            problems.append(f"{result['workload']}: {name} = {entry} is not finite")
    return problems


def smoke() -> int:
    """Tiny versions of every workload, untraced and traced, one pass each."""
    import workloads

    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=0, seconds=0, trace=trace, smoke=True)
            report(result)
            problems += result["errors"]
            expected = tracing.PER_LAYER if trace else END_TO_END + REPORTED_ONLY
            problems += _metrics_ok(result, expected)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload one after another, each in its own process so that
    peak memory is the workload's own."""
    import workloads

    lines = {}
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(out[-1])
    print(json.dumps(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; check every metric")
    args = parser.parse_args(argv)

    _pin_threads()
    _import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; choose from {known} or all")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = _environment()
    report(result)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
