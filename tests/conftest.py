"""Shared fixtures: the labeled cross-validation suite of 20 families."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import random_orthogonal

from domsplit.words import FamilySource, MatrixFamily


def rotation2(theta: float) -> np.ndarray:
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


@dataclass(frozen=True)
class LabeledFamily:
    name: str
    family: MatrixFamily
    index: int
    dominated: bool


def conjugated_diagonal_family(
    dim: int,
    index: int,
    members: int,
    seed: int,
    gap: float = 2.0,
    noise: float = 0.02,
) -> MatrixFamily:
    """Members share one conjugator; diagonal entries keep a spectral gap at
    ``index`` of at least ``gap`` >= 1.5, then small entrywise noise."""
    rng = np.random.default_rng(seed)
    basis = random_orthogonal(dim, rng)
    mats = []
    for _ in range(members):
        top = gap * np.exp(rng.uniform(0.0, 0.4, size=index))
        bottom = np.exp(rng.uniform(-0.4, 0.0, size=dim - index))
        entries = np.concatenate([np.sort(top)[::-1], np.sort(bottom)[::-1]])
        M = basis @ np.diag(entries) @ basis.T
        mats.append(M + rng.uniform(-noise, noise, size=(dim, dim)))
    return MatrixFamily.from_matrices(
        mats, labels=[f"C{j}" for j in range(members)],
        source=FamilySource(description=f"conjugated diagonal suite seed={seed}"),
    )


def interleaved_family(members: int, lam: float) -> MatrixFamily:
    """Members with eigenvalues lam and 1/lam whose unstable and stable
    lines interleave on P^1: member j has unstable line j pi/k and stable
    line j pi/k - pi/(2k), for k members."""
    mats = []
    for j in range(members):
        unstable, stable = j * math.pi / members, (j - 0.5) * math.pi / members
        P = np.array([[math.cos(unstable), math.cos(stable)], [math.sin(unstable), math.sin(stable)]])
        mats.append(P @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(P))
    return MatrixFamily.from_matrices(mats, [f"M{j}" for j in range(members)])


def isometry_family(dim: int, members: int, seed: int) -> MatrixFamily:
    rng = np.random.default_rng(seed)
    mats = [random_orthogonal(dim, rng) for _ in range(members)]
    return MatrixFamily.from_matrices(
        mats, labels=[f"Q{j}" for j in range(members)],
        source=FamilySource(description=f"isometry suite seed={seed}"),
    )


def scaled_rotation_pair() -> MatrixFamily:
    return MatrixFamily.from_matrices(
        [np.diag([2.0, 1.0]), rotation2(math.pi / 2)], labels=["A", "R"]
    )


def build_cross_validation_suite() -> list[LabeledFamily]:
    """10 dominated-by-construction families and 10 not dominated."""
    suite: list[LabeledFamily] = []
    specs = [
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
    ]
    for j, (dim, index, members) in enumerate(specs):
        fam = conjugated_diagonal_family(dim, index, members, seed=1000 + j)
        suite.append(LabeledFamily(f"dominated_{j}", fam, index, True))
    suite.append(LabeledFamily("rotation_1rad", MatrixFamily.from_matrices([rotation2(1.0)], ["R"]), 1, False))
    suite.append(LabeledFamily("diag_rot", scaled_rotation_pair(), 1, False))
    for j in range(8):
        dim = (2, 3, 4)[j % 3]
        fam = isometry_family(dim, 2 + j % 2, seed=2000 + j)
        suite.append(LabeledFamily(f"isometry_{j}", fam, 1 + j % (dim - 1) if dim > 2 else 1, False))
    return suite


@pytest.fixture(scope="session")
def cross_validation_suite() -> list[LabeledFamily]:
    return build_cross_validation_suite()


@pytest.fixture(scope="session")
def dominated_suite(cross_validation_suite) -> list[LabeledFamily]:
    return [f for f in cross_validation_suite if f.dominated]
