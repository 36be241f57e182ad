"""Print the sha256 of every output file of a fixed set of domsplit runs.

Run from a checkout:

    python tools/output_digest.py [TREE]

Every run writes into a fresh temporary directory, or into ``TREE`` when it
is given (created if missing, and it must be empty), which is then kept for
``tools/compare_outputs.py``.  One line per file is printed as
``<sha256>  <relative path>``, sorted by path, so the output of two
checkouts can be compared with ``diff``.  The runs are:

- ``domsplit check``/``multicone``/``splitting`` on diag(2, 1), on
  diag(2, 1) with a 0.1 rad rotation, and on a perturbed 3-d
  ``conjugated_diagonal`` generator at indices 1 and 2;
- ``domsplit example4d --grid 8 --lambda 1.01 --skip-perturbed`` and
  ``--grid 12 --skip-perturbed``;
- the report of ``verify_example`` with grid_n 40, 128 attractor words and
  no perturbed rerun (the benchmark's ``example4d`` settings), and the same
  settings with the perturbed rerun, which also pins the report of a
  failing side;
- ``domsplit multicone`` on the ten dominated benchmark families
  (``bench/suite.py``) at workload seeds 0 and 3;
- ``domsplit check`` on three random 4x4 orthogonal matrices at indices 3
  and 2, whose compounds all have scalar Gram matrices (the sigma_1
  kernel's pinned path), in ``isometry4d/``;
- ``domsplit multicone`` on the ``conjugated_diagonal`` generator with
  entries [3, 2, 1] at index 1 (rotation seed 0) and [4, 3, 1, 0.5] at
  index 2 (rotation seeds 0-3), whose attractors are one plane up to
  rounding, in ``one_plane/``;
- ``domsplit multicone`` on 2 x 2 families whose unstable and stable lines
  interleave on P^1, 3 members at lambda 6 (three components) and 2 at
  lambda 8 (refused by the chart test: no certificate, exit 3, though the
  family is dominated), in ``interleaved/``.

Exit codes are collected in ``exit_codes.txt``, and those of the
``isometry4d``, ``one_plane`` and ``interleaved`` runs in an
``exit_codes.txt`` of their own; all are hashed with the rest, and
``tools/compare_outputs.py`` gates them.  Every ``.json``
written must also parse as strict JSON, without the ``NaN``, ``Infinity``
and ``-Infinity`` tokens that Python's json module writes and reads by
default; if one does not, the tool names it and exits 1.  The whole set
takes about 10 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from domsplit import cli, example4d  # noqa: E402

import suite  # noqa: E402

ROTATION = 0.1
PERTURBED_3D = {
    "generator": {
        "kind": "random_perturbation",
        "base": {"generator": {"kind": "conjugated_diagonal", "entries": [4, 2, 1], "rotation_seed": 4}},
        "noise": 0.02,
        "seed": 7,
        "copies": 3,
    }
}
# (entries, index, rotation seeds) of the one_plane runs
ONE_PLANE = (([3, 2, 1], 1, (0,)), ([4, 3, 1, 0.5], 2, (0, 1, 2, 3)))
# (members, lambda) of the interleaved runs
INTERLEAVED = ((3, 6), (2, 8))


def _families() -> dict[str, tuple[dict, tuple[int, ...]]]:
    c, s = math.cos(ROTATION), math.sin(ROTATION)
    diag = {"label": "A", "entries": [2, 0, 0, 1]}
    return {
        "diag21": ({"dim": 2, "matrices": [diag]}, (1,)),
        "diag21_rot": ({"dim": 2, "matrices": [diag, {"label": "R", "entries": [c, -s, s, c]}]}, (1,)),
        "perturbed3d": (PERTURBED_3D, (1, 2)),
    }


def _isometries(dim: int, members: int, seed: int) -> dict:
    Q, R = np.linalg.qr(np.random.default_rng(seed).normal(size=(members, dim, dim)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    return {"dim": dim, "matrices": [{"label": f"Q{j}", "entries": M.ravel().tolist()} for j, M in enumerate(Q)]}


def _interleaved(members: int, lam: float) -> dict:
    """Member j has eigenvalues lam and 1/lam, unstable line j pi/k and
    stable line (j - 1/2) pi/k, for k members."""
    mats = []
    for j in range(members):
        unstable, stable = j * math.pi / members, (j - 0.5) * math.pi / members
        P = np.array([[math.cos(unstable), math.cos(stable)], [math.sin(unstable), math.sin(stable)]])
        M = P @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(P)
        mats.append({"label": f"M{j}", "entries": M.ravel().tolist()})
    return {"dim": 2, "matrices": mats}


def _run(codes: list[str], name: str, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    codes.append(f"{code} {name}")


def run_all(out: Path) -> None:
    codes: list[str] = []
    for name, (spec, indices) in _families().items():
        path = out / "specs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec))
        for index in indices:
            for command in ("check", "multicone", "splitting"):
                run = f"{command}_{name}_i{index}"
                _run(codes, run, [command, str(path), "--index", str(index), "--out", str(out / run)])
    _run(codes, "example4d_grid8", ["example4d", "--grid", "8", "--lambda", "1.01", "--skip-perturbed",
                                    "--out", str(out / "example4d_grid8")])
    _run(codes, "example4d_grid12", ["example4d", "--grid", "12", "--skip-perturbed",
                                     "--out", str(out / "example4d_grid12")])

    for name, perturbed in (("verify_example", False), ("verify_example_perturbed", True)):
        config = example4d.ExampleConfig(grid_n=40, attractor_words=128, run_perturbed=perturbed)
        report = example4d.verify_example(config=config)
        cli._write_json(out / f"{name}.json", report.to_json_dict())

    for seed in (0, 3):
        specs = out / f"suite_seed{seed}_specs"
        specs.mkdir()
        for case in suite.dominated_cases(seed, specs):
            run = f"multicone_suite_seed{seed}/{case.name}"
            _run(codes, run, ["multicone", str(case.spec), "--index", str(case.index), "--out", str(out / run)])
    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n")

    iso, codes = out / "isometry4d", []
    iso.mkdir()
    spec = iso / "spec.json"
    spec.write_text(json.dumps(_isometries(4, 3, 17)))
    for index in (3, 2):
        run = f"check_i{index}"
        _run(codes, run, ["check", str(spec), "--index", str(index), "--out", str(iso / run)])
    (iso / "exit_codes.txt").write_text("\n".join(codes) + "\n")

    one, codes = out / "one_plane", []
    one.mkdir()
    for entries, index, seeds in ONE_PLANE:
        for seed in seeds:
            run = f"multicone_d{len(entries)}_i{index}_seed{seed}"
            spec = one / f"{run}.spec.json"
            generator = {"kind": "conjugated_diagonal", "entries": entries, "rotation_seed": seed}
            spec.write_text(json.dumps({"generator": generator}))
            _run(codes, run, ["multicone", str(spec), "--index", str(index), "--out", str(one / run)])
    (one / "exit_codes.txt").write_text("\n".join(codes) + "\n")

    inter, codes = out / "interleaved", []
    inter.mkdir()
    for members, lam in INTERLEAVED:
        run = f"multicone_k{members}_lambda{lam}"
        spec = inter / f"{run}.spec.json"
        spec.write_text(json.dumps(_interleaved(members, lam)))
        _run(codes, run, ["multicone", str(spec), "--index", "1", "--out", str(inter / run)])
    (inter / "exit_codes.txt").write_text("\n".join(codes) + "\n")


def _reject_constant(token: str):
    raise ValueError(f"non-JSON token {token}")


def strict_json_failure(out: Path) -> str | None:
    """The first ``.json`` file under ``out`` that is not strict JSON, with
    the reason, or None when every one is."""
    for path in sorted(out.rglob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_reject_constant)
        except ValueError as exc:
            return f"{path.relative_to(out).as_posix()}: {exc}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, help="directory in which to keep the run tree")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        if args.tree is None:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            out = args.tree
            out.mkdir(parents=True, exist_ok=True)
            if any(out.iterdir()):
                parser.error(f"{out} is not empty")
        run_all(out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out).as_posix()}")
        failure = strict_json_failure(out)
    if failure is not None:
        print(f"not strict JSON: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
