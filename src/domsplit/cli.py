"""Command-line surface: domination checks, multicones, splittings, the
4-dimensional example, and file I/O.

Family specification files are JSON with exactly one of "matrices" (explicit
entries, row-major) or "generator".  Exit codes are a stable contract:
0 = dominated / full pass, 2 = not dominated / stage failure,
3 = inconclusive / no certificate, 1 = error.  ``multicone`` runs no gap
search: the multicone it builds is the certificate, and a build without one
exits 3.  Output files are written to a temporary name and renamed, so no
command leaves partial files behind.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import example4d, multicone, splitting, words
from .errors import DomsplitError, MulticoneConstructionError
from .words import FamilySource, MatrixFamily, SearchConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_DOMINATED = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    words.DOMINATED: EXIT_OK,
    words.NOT_DOMINATED: EXIT_NOT_DOMINATED,
    words.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _write_atomic(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a NaN or inf that no field writes as null raises here
    _write_atomic(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_csv(path: Path, rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


# ---------------------------------------------------------------------------
# family specification files


_JSON_KINDS = {dict: "object", list: "array", int: "integer", float: "number"}


def _checked(value, kind: type, what: str):
    """``value`` if it is a JSON value of ``kind`` (dict, list, int or
    float), else a ValueError naming ``what`` and the type it has.  A JSON
    number may be an int, and neither kind of number is a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, got {type(value).__name__}")
    return value


def _float(value, what: str) -> float:
    """A checked JSON number as a finite float; an integer too large for a
    float, or a number that parsed to inf or nan, is a ValueError naming
    ``what``."""
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} must fit a float, got an integer too large for one") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def _scalar(spec: dict, key: str, default, kind: type, what: str, least: float = -math.inf):
    """``spec[key]``, or ``default`` if it is missing, as a checked ``kind``
    of at least ``least``."""
    what = f"{key!r} of {what}"
    value = _checked(spec.get(key, default), kind, what)
    value = value if kind is int else _float(value, what)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _required(spec: dict, key: str, what: str):
    """``spec[key]``, or a ValueError naming the missing key."""
    if key not in spec:
        raise ValueError(f"{what} is missing the key {key!r}")
    return spec[key]


def _numbers(value, what: str) -> list[float]:
    """A JSON array of numbers (not bools) as floats."""
    values = _checked(value, list, what)
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError(f"{what} must hold only numbers, got {type(x).__name__}")
    return [_float(x, what) for x in values]


# the most curve samples an example4d generator may ask for, and the most
# members a random_perturbation generator may make: a family holds about
# 2 KB of arrays per member once its compounds are formed, so the cap keeps
# one near 200 MB
MAX_CURVE_SAMPLES = 100_000


def _build_generator(spec) -> MatrixFamily:
    spec = _checked(spec, dict, "'generator'")
    kind = spec.get("kind")
    what = f"generator {kind!r}"
    if kind == "example4d":
        lam = _scalar(spec, "lambda", 16.0, float, what)
        samples = _scalar(spec, "samples", 64, int, what)
        if not 1 <= samples <= MAX_CURVE_SAMPLES:
            raise ValueError(f"'samples' of {what} must be from 1 to {MAX_CURVE_SAMPLES}, got {samples}")
        return example4d.curve_family(lam, samples)
    if kind == "conjugated_diagonal":
        entries = _numbers(_required(spec, "entries", what), f"the entries of {what}")
        # numpy's generators refuse a negative seed without naming it
        seed = _scalar(spec, "rotation_seed", 0, int, what, least=0)
        rng = np.random.default_rng(seed)
        d = len(entries)
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        M = basis @ np.diag(entries) @ basis.T
        return MatrixFamily(
            labels=("conj_diag",),
            stack=M[None],
            source=FamilySource(description=f"conjugated diagonal, seed={seed}"),
        )
    if kind == "random_perturbation":
        base = load_family_dict(_required(spec, "base", what))
        noise = _scalar(spec, "noise", 0.0, float, what)
        seed = _scalar(spec, "seed", 0, int, what, least=0)
        copies = _scalar(spec, "copies", 1, int, what)
        # values below 1 are refused by ``perturb_family``
        limit = max(1, MAX_CURVE_SAMPLES // base.size)
        if copies > limit:
            raise ValueError(f"'copies' of {what} must be from 1 to {limit}, got {copies}")
        return words.perturb_family(base, noise, seed, copies=copies)
    raise ValueError(f"unknown generator kind: {kind!r}")


def load_family_dict(spec) -> MatrixFamily:
    spec = _checked(spec, dict, "family spec")
    has_matrices = "matrices" in spec
    has_generator = "generator" in spec
    if has_matrices == has_generator:
        raise ValueError("family spec needs exactly one of 'matrices' or 'generator'")
    if has_generator:
        return _build_generator(spec["generator"])
    dim = _checked(_required(spec, "dim", "family spec"), int, "'dim' of family spec")
    if dim < 1:
        raise ValueError(f"'dim' of family spec must be at least 1, got {dim}")
    labels = []
    rows = []
    for k, item in enumerate(_checked(spec["matrices"], list, "'matrices'")):
        item = _checked(item, dict, f"matrix {k}")
        label = str(item.get("label", f"M{k}"))
        what = f"matrix {label!r}"
        entries = _numbers(_required(item, "entries", what), f"the entries of {what}")
        if len(entries) != dim * dim:
            raise ValueError(f"{what} has {len(entries)} entries, expected {dim * dim}")
        labels.append(label)
        rows.append(entries)
    return MatrixFamily(labels=tuple(labels), stack=np.array(rows).reshape(len(rows), dim, dim))


def load_family_spec(path: str | Path) -> MatrixFamily:
    text = Path(path).read_text()
    spec = json.loads(text)  # JSONDecodeError carries line/column diagnostics
    return load_family_dict(spec)


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    family = load_family_spec(args.input)
    config = SearchConfig(max_len=args.max_len, budget=args.budget, beam_width=args.beam)
    report = words.is_dominated(family, args.index, config)
    out = Path(args.out)
    _write_json(out / "gap_report.json", report.to_json_dict())
    _write_csv(out / "gap_report.csv", report.csv_rows())
    print(f"verdict: {report.verdict.kind}")
    if report.verdict.reason:
        print(f"reason: {report.verdict.reason}")
    if report.verdict.witness is not None:
        print(f"witness: {list(family.word_labels(report.verdict.witness))}")
    return _VERDICT_EXIT[report.verdict.kind]


def cmd_multicone(args) -> int:
    family = load_family_spec(args.input)
    config = multicone.MulticoneConfig(
        attractor_word_len=args.word_len,
        attractor_words=args.words,
        attractor_rng_seed=args.seed,
    )
    try:
        mc = multicone.build_multicone(family, args.index, config)
    except MulticoneConstructionError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        for name, value in exc.parts.items():
            print(f"  {name}={value:.6g}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    out = Path(args.out)
    _write_json(out / "multicone.json", mc.to_json_dict())
    for which in range(len(mc.components)):
        _write_csv(out / f"component_{which}.csv", mc.component_cone(which).csv_rows())
    print(
        f"components: {len(mc.components)}, radius: {mc.cone.radius:.6g}, "
        f"invariance margin: {mc.invariance_margin:.6g}"
    )
    return EXIT_OK


# the longest window words: on a 4-d family, 100,000 letters peak near
# 100 MB and take about 4 s, both growing linearly with the length
MAX_WINDOW_LEN = 100_000


def cmd_splitting(args) -> int:
    family = load_family_spec(args.input)
    for flag, value in (("--past-len", args.past_len), ("--future-len", args.future_len)):
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
        if value is not None and value > MAX_WINDOW_LEN:
            raise ValueError(f"{flag} must be from 1 to {MAX_WINDOW_LEN}, got {value}")
    if args.word_seed < 0:
        raise ValueError(f"--word-seed must be at least 0, got {args.word_seed}")
    rng = np.random.default_rng(args.word_seed)
    past_len = args.past_len
    if past_len is None:
        past_len = splitting.default_window_length(family, args.index, args.word_seed)
    future_len = past_len if args.future_len is None else args.future_len
    past = tuple(int(j) for j in rng.integers(family.size, size=past_len))
    future = tuple(int(j) for j in rng.integers(family.size, size=future_len))
    estimate = splitting.splitting_from_window(family, past, future, args.index)
    check = splitting.verify_domination(family, estimate, future)
    out = Path(args.out)
    payload = estimate.to_json_dict()
    payload["verification"] = {
        "passes": check.passes,
        "fitted_slope": check.fitted_slope,
        "residual": check.residual,
    }
    _write_json(out / "splitting.json", payload)
    _write_csv(out / "ratio_curve.csv", check.csv_rows())
    print(f"angle: {estimate.angle:.6g}, verification passes: {check.passes}")
    return EXIT_OK if check.passes else EXIT_NOT_DOMINATED


def cmd_example4d(args) -> int:
    config = example4d.ExampleConfig(
        grid_n=args.grid,
        run_perturbed=not args.skip_perturbed,
    )
    report = example4d.verify_example(lam=args.lam, config=config)
    out = Path(args.out)
    _write_json(out / "example4d_report.json", report.to_json_dict())
    _write_csv(out / "curves.csv", example4d.curve_csv_rows())
    _write_csv(out / "ruled_surface.csv", example4d.ruled_surface_csv_rows(args.grid))
    if report.passed:
        print(f"pass: lambda={report.lam}, both sides certified")
        return EXIT_OK
    print(f"fail at stage: {report.failing_stage}")
    for entry in report.scan:
        print(
            f"  lambda={entry.lam}: unstable margin {entry.unstable_margin:.4g}, "
            f"stable margin {entry.stable_margin:.4g}"
        )
    return EXIT_NOT_DOMINATED


# built once per process: ``main`` may run many times in one, and parsing
# leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domsplit",
        description="Decide and certify domination for compact sets of invertible matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the gap-search limits, with the library's defaults
    search = SearchConfig()
    p = sub.add_parser("check", help="gap-decay domination verdict for a family")
    p.add_argument("input", help="family spec JSON file")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--max-len", type=int, default=search.max_len)
    p.add_argument("--budget", type=int, default=search.budget)
    p.add_argument("--beam", type=int, default=search.beam_width)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_check)

    # the attractor settings, with the library's defaults
    attractor = multicone.MulticoneConfig()
    p = sub.add_parser("multicone", help="build a strictly invariant multicone")
    p.add_argument("input")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--word-len", type=int, default=attractor.attractor_word_len)
    p.add_argument("--words", type=int, default=attractor.attractor_words)
    p.add_argument("--seed", type=int, default=attractor.attractor_rng_seed)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_multicone)

    p = sub.add_parser("splitting", help="estimate and verify a splitting from windows")
    p.add_argument("input")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--past-len", type=int, default=None)
    p.add_argument("--future-len", type=int, default=None)
    p.add_argument("--word-seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_splitting)

    p = sub.add_parser("example4d", help="run the 4-dimensional two-curve certificate")
    p.add_argument("--grid", type=int, default=example4d.ExampleConfig().grid_n)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--skip-perturbed", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_example4d)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (DomsplitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
