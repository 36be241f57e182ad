"""The three benchmark workloads: inputs from a seed, one timed pass, and the
check of every operation's outputs.

An operation is one ``domsplit`` CLI call (run in this process through
``cli.main``) or one ``example4d.verify_example`` call.  It fails on a wrong
exit code, a wrong verdict, a raised error or a report with
``passed=false``.  Each pass also yields a fingerprint of its outputs that
must repeat exactly on every pass of one commit and seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import suite

# gap_suite: the acceptance search settings (criterion 3) and the splitting
# word seeds run on each dominated family
CHECK_ARGS = ("--max-len", "10", "--budget", "1000000")
WORD_SEEDS = (0, 1, 2)

# example4d: the default pipeline scaled to fit one pass into a run (see
# bench/METRICS.md): a coarser curve grid, a smaller attractor cloud and no
# perturbed rerun.  The lambda scan and both sides are kept.
EXAMPLE_SETTINGS = {"grid_n": 40, "attractor_words": 128, "run_perturbed": False}
EXAMPLE_LAMBDA = 32.0

EXIT_FOR_VERDICT = {"dominated": 0, "not_dominated": 2, "inconclusive": 3}


@dataclass
class Op:
    name: str
    ok: bool = False
    known_defect: bool = False
    detail: str = ""


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


def _call(fn, *args, **kwargs) -> tuple[object, str]:
    """(result, console output or traceback) of one operation.

    An operation that raises is a failed operation, with result None.
    """
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = fn(*args, **kwargs)
    except Exception:
        result = None
        sink.write(traceback.format_exc(limit=3))
    return result, sink.getvalue()


class GapSuite:
    """Gap decay over words: ``domsplit check`` on the 20 suite families and
    the 3 slow-domination families, then ``domsplit splitting`` over several
    word seeds on each dominated suite family."""

    name = "gap_suite"

    def __init__(self, domsplit):
        self.cli = domsplit.cli

    def setup(self, seed: int, workdir: Path) -> None:
        self.cases = suite.suite_cases(seed, workdir)

    def run(self, outdir: Path) -> list[tuple]:
        calls = []
        for case in self.cases:
            out = outdir / f"check_{case.name}"
            argv = ["check", str(case.spec), "--index", str(case.index), *CHECK_ARGS, "--out", str(out)]
            calls.append(("check", case, None, out, _call(self.cli.main, argv)))
            if not case.dominated or case.slow:
                continue
            for word_seed in WORD_SEEDS:
                out = outdir / f"split_{case.name}_{word_seed}"
                argv = ["splitting", str(case.spec), "--index", str(case.index),
                        "--word-seed", str(word_seed), "--out", str(out)]
                calls.append(("splitting", case, word_seed, out, _call(self.cli.main, argv)))
        return calls

    def check(self, calls: list[tuple]) -> PassResult:
        res = PassResult()
        for kind, case, word_seed, out, (code, log) in calls:
            if kind == "check":
                op = Op(f"check {case.name}", known_defect=case.slow)
                try:
                    report = json.loads((out / "gap_report.json").read_text())
                    verdict = report["verdict"]["kind"]
                    words = sum(s["words_examined"] for s in report["per_length"])
                except (OSError, ValueError, KeyError, TypeError):
                    op.detail = f"exit {code}, unreadable gap_report.json: {log.strip()[-300:]}"
                    res.ops.append(op)
                    continue
                res.fingerprint[op.name] = (code, verdict, words)
                if code != EXIT_FOR_VERDICT.get(verdict):
                    op.detail = f"exit {code} does not match verdict {verdict}"
                elif verdict not in case.accepted:
                    op.detail = f"verdict {verdict}, expected {' or '.join(case.accepted)}"
                else:
                    op.ok = True
            else:
                op = Op(f"splitting {case.name} word-seed {word_seed}")
                try:
                    passes = json.loads((out / "splitting.json").read_text())["verification"]["passes"]
                except (OSError, ValueError, KeyError, TypeError):
                    op.detail = f"exit {code}, unreadable splitting.json: {log.strip()[-300:]}"
                    res.ops.append(op)
                    continue
                res.fingerprint[op.name] = (code, passes)
                if code != 0 or passes is not True:
                    op.detail = f"exit {code}, verification passes {passes}"
                else:
                    op.ok = True
            res.ops.append(op)
        return res


class MulticoneSuite:
    """Invariant multicones: ``domsplit multicone`` with default settings
    (domination gate on) over the 10 dominated suite families."""

    name = "multicone_suite"

    def __init__(self, domsplit):
        self.cli = domsplit.cli

    def setup(self, seed: int, workdir: Path) -> None:
        self.cases = suite.dominated_cases(seed, workdir)

    def run(self, outdir: Path) -> list[tuple]:
        calls = []
        for case in self.cases:
            out = outdir / f"multicone_{case.name}"
            argv = ["multicone", str(case.spec), "--index", str(case.index), "--out", str(out)]
            calls.append((case, out, _call(self.cli.main, argv)))
        return calls

    def check(self, calls: list[tuple]) -> PassResult:
        res = PassResult()
        for case, out, (code, log) in calls:
            op = Op(f"multicone {case.name}")
            res.ops.append(op)
            if code != 0:
                op.detail = f"exit {code}: {log.strip()[-300:]}"
                res.fingerprint[op.name] = (code,)
                continue
            try:
                payload = json.loads((out / "multicone.json").read_text())
                margin = payload["invariance_margin"]
                components = payload["components"]
                radius = payload["cone"]["radius"]
            except (OSError, ValueError, KeyError, TypeError):
                op.detail = "unreadable multicone.json"
                continue
            res.fingerprint[op.name] = (code, margin, len(components), radius)
            csvs = len(list(out.glob("component_*.csv")))
            if not margin > 0.0:
                op.detail = f"invariance margin {margin} is not positive"
            elif not components or csvs != len(components):
                op.detail = f"{len(components)} components but {csvs} component CSV files"
            else:
                op.ok = True
        return res


class Example4d:
    """The 4-dimensional two-curve certificate through
    ``example4d.verify_example``: lambda scan, both sides, multicones and
    the semiconvexity trace."""

    name = "example4d"

    def __init__(self, domsplit):
        self.example4d = domsplit.example4d

    def setup(self, seed: int, workdir: Path) -> None:
        # the family is closed-form: with the perturbed rerun left out, no
        # input depends on the seed
        self.config = self.example4d.ExampleConfig(**EXAMPLE_SETTINGS)

    def run(self, outdir: Path) -> list[tuple]:
        return [_call(self.example4d.verify_example, config=self.config)]

    def check(self, calls: list[tuple]) -> PassResult:
        res = PassResult()
        for report, log in calls:
            op = Op("example4d verify_example")
            res.ops.append(op)
            if report is None:
                op.detail = log.strip()[-300:]
                continue
            res.fingerprint[op.name] = (
                report.passed,
                report.lam,
                tuple((e.lam, e.unstable_margin, e.stable_margin) for e in report.scan),
                tuple(
                    s.multicone.invariance_margin
                    for s in (report.unstable, report.stable)
                    if s is not None and s.multicone is not None
                ),
            )
            if not report.passed:
                op.detail = f"failing stage {report.failing_stage}"
            elif report.lam != EXAMPLE_LAMBDA:
                op.detail = f"selected lambda {report.lam}, expected {EXAMPLE_LAMBDA}"
            else:
                op.ok = True
        return res


WORKLOADS = {w.name: w for w in (GapSuite, MulticoneSuite, Example4d)}


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
