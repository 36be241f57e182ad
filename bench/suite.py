"""Benchmark inputs: the labeled cross-validation suite and the slow-domination
families, written as CLI family specification files.

The suite mirrors ``build_cross_validation_suite`` in ``tests/conftest.py``
(same specs, generators and seeds) but lives here so that a change to the
tests never changes what the benchmark measures.  Workload seed 0 gives the
acceptance fixtures exactly; seed ``s`` conjugates every family by a rotation
drawn from ``s``.  Conjugation keeps the singular values of every product and
every Grassmann distance, so each seed asks for the same work and gets the
same verdicts, while the matrix entries change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (dim, index, members) of the ten dominated-by-construction families
DOMINATED_SPECS = (
    (2, 1, 2),
    (2, 1, 3),
    (3, 1, 2),
    (3, 1, 3),
    (3, 2, 2),
    (3, 2, 3),
    (4, 2, 2),
    (4, 2, 2),
    (4, 1, 2),
    (4, 3, 2),
)

# diag(1 + e, 1): dominated of index 1 with tau = 1 / (1 + e), but slowly
SLOW_DOMINATION_RATES = (1.01, 1.05, 1.2)


@dataclass(frozen=True)
class Case:
    """One family spec file with its label.

    ``accepted`` lists the verdicts counted as correct.  ``slow`` marks the
    slow-domination families, whose ``not_dominated`` verdict is a known
    defect of the witness rule: it still counts as a failure.
    """

    name: str
    spec: Path
    index: int
    dominated: bool
    accepted: tuple[str, ...]
    slow: bool = False


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)))
    return Q * np.sign(np.diagonal(R))


def _conjugated_diagonal(dim, index, members, seed, gap=2.0, noise=0.02):
    rng = np.random.default_rng(seed)
    basis = _random_orthogonal(dim, rng)
    mats = []
    for _ in range(members):
        top = gap * np.exp(rng.uniform(0.0, 0.4, size=index))
        bottom = np.exp(rng.uniform(-0.4, 0.0, size=dim - index))
        entries = np.concatenate([np.sort(top)[::-1], np.sort(bottom)[::-1]])
        M = basis @ np.diag(entries) @ basis.T
        mats.append(M + rng.uniform(-noise, noise, size=(dim, dim)))
    return [(f"C{j}", M) for j, M in enumerate(mats)]


def _isometries(dim, members, seed):
    rng = np.random.default_rng(seed)
    return [(f"Q{j}", _random_orthogonal(dim, rng)) for j in range(members)]


def _rotation2(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


def _write_spec(path: Path, members) -> Path:
    dim = members[0][1].shape[0]
    payload = {
        "dim": dim,
        "matrices": [
            {"label": label, "entries": [float(x) for x in M.ravel()]}
            for label, M in members
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def _rotated(members, seed: int, j: int):
    """The family conjugated by the seed's rotation for family ``j``."""
    if not seed:
        return members
    Q = _random_orthogonal(members[0][1].shape[0], np.random.default_rng([seed, j]))
    return [(label, Q @ M @ Q.T) for label, M in members]


def dominated_cases(seed: int, workdir: Path) -> list[Case]:
    """The ten dominated suite families (labels match the test fixtures)."""
    cases = []
    for j, (dim, index, members) in enumerate(DOMINATED_SPECS):
        fam = _rotated(_conjugated_diagonal(dim, index, members, 1000 + j), seed, j)
        name = f"dominated_{j}"
        spec = _write_spec(workdir / f"{name}.json", fam)
        cases.append(Case(name, spec, index, True, ("dominated",)))
    return cases


def suite_cases(seed: int, workdir: Path) -> list[Case]:
    """All twenty suite families plus the three slow-domination families."""
    cases = dominated_cases(seed, workdir)
    fixed = [
        ("rotation_1rad", [("R", _rotation2(1.0))], 1),
        ("diag_rot", [("A", np.diag([2.0, 1.0])), ("R", _rotation2(math.pi / 2))], 1),
    ]
    for j in range(8):
        dim = (2, 3, 4)[j % 3]
        index = 1 + j % (dim - 1) if dim > 2 else 1
        fixed.append((f"isometry_{j}", _isometries(dim, 2 + j % 2, 2000 + j), index))
    for j, (name, members, index) in enumerate(fixed):
        spec = _write_spec(workdir / f"{name}.json", _rotated(members, seed, 100 + j))
        cases.append(Case(name, spec, index, False, ("not_dominated",)))
    for j, rate in enumerate(SLOW_DOMINATION_RATES):
        name = f"slow_diag_{rate:g}"
        members = _rotated([("D", np.diag([rate, 1.0]))], seed, 200 + j)
        spec = _write_spec(workdir / f"{name}.json", members)
        cases.append(Case(name, spec, 1, True, ("dominated", "inconclusive"), slow=True))
    return cases
