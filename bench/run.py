"""Benchmark of domsplit: one workload, measured in this process.

    python3 bench/run.py --workload gap_suite --seed 0 --seconds 20 --trace 0

Workloads (why each exists: bench/METRICS.md):
  gap_suite        ``domsplit check`` + ``domsplit splitting`` on the suite
  multicone_suite  ``domsplit multicone`` on the dominated suite families
  example4d        ``example4d.verify_example`` on the two-curve family

The program is imported from ``src/`` of the checkout this file sits in.
A pass runs every operation of the workload once; passes repeat until the
``--seconds`` budget is spent (at least ``MIN_PASSES``), and each pass's
outputs are checked.  Every time is rescaled to a fixed machine speed by a
reference kernel sampled during the run (bench/speed.py).  ``--trace 0``
reports the end-to-end metrics from untraced passes; ``--trace 1`` wraps the
public functions of each module (bench/tracing.py) and reports the per-layer
metrics.  Set-up is timed in ``SETUP_REPEATS`` fresh interpreters.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_tmp"
SPANS_OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
MIN_PASSES = 2

# (name, unit): what --trace 0 reports
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

# (name, unit): what --trace 1 reports
PER_LAYER = (
    ("words.enumerate_gaps.s", "s"),
    ("words.enumerate_gaps.calls", "count"),
    ("words.words_examined", "count"),
    ("words.words_per_s", "1/s"),
    ("words.beam_exact_frac", "frac"),
    ("words.verdict_self_s", "s"),
    ("words.is_dominated.calls", "count"),
    ("words.log_gap_ratio.calls", "count"),
    ("words.scaled_word_product.calls", "count"),
    ("grassmann.kernel.s", "s"),
    ("grassmann.kernel.calls", "count"),
    ("grassmann.plane_pairs", "count"),
    ("grassmann.pairs_per_s", "1/s"),
    ("grassmann.projectivize.s", "s"),
    ("grassmann.line_trace.s", "s"),
    ("multicone.strictly_invariant.s", "s"),
    ("multicone.strictly_invariant.calls", "count"),
    ("multicone.strictly_invariant.pass_frac", "frac"),
    ("multicone.invariance_calls_per_build", "count"),
    ("multicone.invariance_self_s", "s"),
    ("multicone.build_multicone.s", "s"),
    ("multicone.build_multicone.calls", "count"),
    ("multicone.build_self_s", "s"),
    ("multicone.attractor.s", "s"),
    ("multicone.attractor.points", "count"),
    ("multicone.invariance_margin_min", "rad"),
    ("splitting.splitting_from_window.s", "s"),
    ("splitting.splitting_from_window.calls", "count"),
    ("splitting.verify_domination.s", "s"),
    ("splitting.verify_domination.calls", "count"),
    ("splitting.default_window_length.s", "s"),
    ("splitting.verify_pass_frac", "frac"),
    ("example4d.verify_example.s", "s"),
    ("example4d.scan.s", "s"),
    ("example4d.scan.calls", "count"),
    ("example4d.curve_family.s", "s"),
    ("example4d.skewness_margin.s", "s"),
    ("example4d.selected_lambda", "1"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("process.cpu_s", "s"),
    ("process.tracing_overhead_frac", "frac"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Keep BLAS threads at or below the usable cores (before numpy loads)."""
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc()) if requested.isdigit() and int(requested) > 0 else nproc()
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def import_domsplit():
    """The package from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import domsplit
    import domsplit.cli  # noqa: F401  (also loads example4d)

    if Path(domsplit.__file__).resolve().parent != SRC / "domsplit":
        sys.exit(f"bench: imported domsplit from {domsplit.__file__}, not {SRC}")
    return domsplit


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_workload(name: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs."""
    import workloads

    workload = workloads.WORKLOADS[name](import_domsplit())
    workloads.clear(workdir)
    workload.setup(seed, workdir)
    return workload


def time_setup(name: str, seed: int) -> tuple[float, float]:
    """(wall, scaled) seconds from spawning a fresh interpreter until its
    inputs are ready, scaled by the speed samples taken in that interpreter."""
    import speed

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return speed.Sampler(probe["ticks"]).scaled(start, probe["ready"])


@dataclass
class Pass:
    start: float
    end: float
    cpu_s: float
    result: object
    spans: list | None


def timed_pass(workload, outdir: Path, tracer=None) -> Pass:
    import workloads

    workloads.clear(outdir)
    if tracer is not None:
        tracer.install()
    cpu = time.process_time()
    start = time.monotonic()
    try:
        calls = workload.run(outdir)
    finally:
        end = time.monotonic()
        cpu = time.process_time() - cpu
        if tracer is not None:
            tracer.uninstall()
    result = workload.check(calls)
    return Pass(start, end, cpu, result, tracer.take() if tracer is not None else None)


def measure(workload, seconds: float, outdir: Path, min_passes: int, tracer=None) -> list[Pass]:
    """Passes until the next one would overrun ``seconds`` (at least ``min_passes``)."""
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(timed_pass(workload, outdir, tracer))
        used = time.monotonic() - start
        typical = statistics.median(p.end - p.start for p in passes)
        if len(passes) >= min_passes and used + typical > seconds:
            return passes


def repeat_mismatches(passes: list[Pass], traced_metrics: list[dict]) -> list[str]:
    """Outputs and named counts that differ between passes of this run."""
    import tracing

    problems = []
    first = passes[0].result.fingerprint
    for k, p in enumerate(passes[1:], start=1):
        for key in sorted(set(first) | set(p.result.fingerprint)):
            if first.get(key) != p.result.fingerprint.get(key):
                problems.append(f"pass {k}: {key}: {p.result.fingerprint.get(key)} != {first.get(key)}")
    for k, m in enumerate(traced_metrics[1:], start=1):
        for key in tracing.EXACT_KEYS:
            if m[key] != traced_metrics[0][key]:
                problems.append(f"traced pass {k}: {key}: {m[key]} != {traced_metrics[0][key]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("gap_suite", "multicone_suite", "example4d"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "domsplit" / "__init__.py").is_file():
        sys.exit(f"bench: no domsplit sources under {SRC}")
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(BENCH_DIR))
    import speed  # loads numpy, so only after the BLAS cap

    if args.setup_probe:
        sampler = speed.Sampler()
        workdir = WORK / f"setup-{os.getpid()}"
        sampler.start()
        try:
            setup_workload(args.workload, args.seed, workdir)
            ready = time.monotonic()
        finally:
            sampler.stop()
            shutil.rmtree(workdir, ignore_errors=True)
        if not sampler.starts:  # set-up shorter than one period
            sampler.sample()
        print(json.dumps({"ready": ready, "ticks": sampler.ticks()}))
        return 0

    setup_samples = [] if args.trace else [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workdir = WORK / f"run-{os.getpid()}"
    sampler = speed.Sampler()
    try:
        workload = setup_workload(args.workload, args.seed, workdir / "inputs")
        import domsplit
        import tracing

        env = environment(blas_threads)
        outdir = workdir / "outputs"
        warmup = []
        traced = []
        sampler.start()
        if args.trace:
            # the overhead compares warm passes only
            warmup = [timed_pass(workload, outdir)]
            untraced = measure(workload, args.seconds / 2, outdir, 1)
            tracer = tracing.Tracer(domsplit)
            traced = measure(workload, args.seconds / 2, outdir, MIN_PASSES, tracer)
        else:
            untraced = measure(workload, args.seconds, outdir, MIN_PASSES)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def scaled(t0: float, t1: float) -> float:
        return sampler.scaled(t0, t1)[1]

    passes = warmup + untraced + traced
    ops = [op for p in passes for op in p.result.ops]
    failed = [op for op in ops if not op.ok]
    layer = [tracing.layer_metrics(p.spans, lambda s: scaled(s[2], s[3])) for p in traced]
    problems = repeat_mismatches(passes, layer)
    unexpected = [op for op in failed if not op.known_defect]
    correct = bool(ops) and not problems and not unexpected
    wall_s = statistics.median(scaled(p.start, p.end) for p in untraced)
    raw_wall_s = statistics.median(sampler.scaled(p.start, p.end)[0] for p in untraced)

    if args.trace:
        values = {key: statistics.median(m[key] for m in layer) for key in layer[0]}
        values["process.cpu_s"] = statistics.median(p.cpu_s for p in traced)
        values["process.tracing_overhead_frac"] = (
            statistics.median(scaled(p.start, p.end) for p in traced) / wall_s - 1.0
        )
        table = PER_LAYER
        SPANS_OUT.mkdir(exist_ok=True)
        spans_file = SPANS_OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "environment": env,
             "passes": [tracing.spans_payload(p.spans) for p in traced]}
        ))
    else:
        values = {
            "setup_s": statistics.median(s for _, s in setup_samples),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failed) / len(ops),
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(warmup)} warm-up, {len(untraced)} "
          f"untraced and {len(traced)} traced passes, "
          f"pass walls (s) {[round(p.end - p.start, 3) for p in passes]}, "
          f"pass CPU (s) {[round(p.cpu_s, 3) for p in passes]}, "
          f"passes at the reference speed (s) {[round(scaled(p.start, p.end), 3) for p in passes]}")
    kernel = statistics.median(sampler.durations(passes[0].start, passes[-1].end))
    print(f"untraced pass: median {raw_wall_s:.4f} s of wall time, {wall_s:.4f} s at the reference "
          f"speed; reference kernel median {kernel * 1e3:.3f} ms against {speed.REFERENCE_S * 1e3:.3f} ms")
    if setup_samples:
        print(f"setup samples, wall (s): {[round(w, 3) for w, _ in setup_samples]}, "
              f"at the reference speed (s): {[round(s, 3) for _, s in setup_samples]}")
    digest = hashlib.sha256(repr(sorted(passes[0].result.fingerprint.items())).encode())
    print(f"outputs fingerprint (equal for every run of one commit and seed): "
          f"{digest.hexdigest()[:16]}")
    print(f"operations: {len(ops)} attempted, {len(failed)} failed, "
          f"failed_frac {len(failed) / len(ops):.6g}")
    for op in sorted({(op.name, op.detail, op.known_defect) for op in failed}):
        print(f"  failed: {op[0]}: {op[1]}" + (" [known defect]" if op[2] else ""))
    for problem in problems:
        print(f"  exact-repeat mismatch: {problem}")
    if traced:
        share = values["multicone.strictly_invariant.s"] / statistics.median(scaled(p.start, p.end) for p in traced)
        print(f"strictly_invariant share of traced wall_s: {share:.4f}")
    for name, unit in table:
        print(f"  {name} = {values[name]!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
