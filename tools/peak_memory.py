"""Print the tracemalloc peak of one pass of each benchmark workload.

Run from a checkout:

    python tools/peak_memory.py [TREE] [--workload NAME]

``TREE`` defaults to this checkout.  The workloads are those of
``TREE/bench/workloads.py``, run on ``TREE/src/`` at workload seed 0, and
are only driven, not changed: one warm pass each, then one pass under
``tracemalloc``.  Each workload runs in a fresh interpreter of its own, so
its peak does not depend on the workloads before it; ``--workload`` runs
just the one named, in this process.  One line per workload gives that
pass's peak in MB (2^20 bytes) of traced allocations (Python objects and
numpy buffers made during the pass), and how many of its operations passed
their check.  Unlike the benchmark's ``peak_rss_mb``, the peak does not
move with heap layout, so a change of a few KB at the peak shows; tracing
every allocation makes the pass several times slower.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def _one_pass(workload, outdir: Path, workloads):
    workloads.clear(outdir)
    return workload.check(workload.run(outdir))


def _measure(tree: Path, name: str, workloads) -> None:
    """Print the peak line of workload ``name`` of ``tree``'s ``workloads``
    module, run in this process."""
    import domsplit
    import domsplit.cli  # noqa: F401  (the workloads call the CLI in-process)

    src = tree / "src"
    if Path(domsplit.__file__).resolve().parent != src / "domsplit":
        sys.exit(f"peak_memory: imported domsplit from {domsplit.__file__}, not {src}")
    workload = workloads.WORKLOADS[name](domsplit)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        workloads.clear(inputs)
        workload.setup(SEED, inputs)
        outdir = Path(tmp) / "outputs"
        _one_pass(workload, outdir, workloads)
        tracemalloc.start()
        try:
            result = _one_pass(workload, outdir, workloads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    ok = sum(op.ok for op in result.ops)
    print(f"{name:16s} {peak / 2**20:9.3f} MB  ({ok} of {len(result.ops)} operations ok)", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--workload", help="measure only this workload, in this process")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import workloads

    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"no workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        _measure(tree, args.workload, workloads)
        return 0
    for name in workloads.WORKLOADS:
        subprocess.run([sys.executable, __file__, str(tree), "--workload", name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
