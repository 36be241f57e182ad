"""Compare two output trees of ``tools/output_digest.py`` file by file.

Run from a checkout, with the trees kept by the digest tool:

    python tools/output_digest.py /path/to/parent_tree   # in the parent checkout
    python tools/output_digest.py /path/to/change_tree   # in this checkout
    python tools/compare_outputs.py /path/to/parent_tree /path/to/change_tree

One line per file says ``same``, ``layout``, ``changed``, ``added`` or
``removed``.  A ``layout`` file differs in its bytes only: no number,
discrete value or gate value moved (JSON written with another indent, say).
A changed file also gives the largest absolute difference between its
numbers, and where it is.  JSON files are compared value by value; other
files line by line, with the numbers in each line or string compared as
numbers and the text around them as text.  Integers (indices, counts,
exit codes) are discrete: every change that is not a difference between
two floating-point values (an integer, string, flag, key set or list
length) is listed under its file as ``discrete``.
Lists of different lengths, and files of different line counts, are
reported by their lengths only, since their entries need not correspond.
A change to a verdict, an exit code, a ``passed``/``passes`` flag or a
``lambda`` is marked ``GATE``, whether numeric or not, and so is a key set
that gains or loses one of those keys.  The exit status is 1
when a gate value moved, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# keys whose values must not move between the trees; a change anywhere
# under one of them is a gate change
GATE_KEYS = frozenset({"verdict", "passed", "passes", "lambda"})
EXIT_CODES = "exit_codes.txt"
# how many discrete changes to list per file
SHOWN_CHANGES = 5

INTEGER = re.compile(r"[-+]?\d+")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)\b|-?Infinity|NaN")


@dataclass
class FileDiff:
    max_delta: float = 0.0
    max_at: str | None = None
    changes: list[str] = field(default_factory=list)
    gate: list[str] = field(default_factory=list)

    def number(self, path: str, old: float, new: float) -> None:
        if old == new or (math.isnan(old) and math.isnan(new)):
            return
        delta = abs(new - old) if math.isfinite(old) and math.isfinite(new) else math.inf
        if self.max_at is None or delta > self.max_delta:
            self.max_delta, self.max_at = delta, path

    def other(self, path: str, what: str, gated: bool) -> None:
        (self.gate if gated else self.changes).append(f"{path}: {what}" if path else what)


def _text(diff: FileDiff, path: str, old: str, new: str, gated: bool) -> None:
    """Numbers in two strings compared as numbers, the rest as text."""
    if old == new:
        return
    old_nums, new_nums = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.split(old) != NUMBER.split(new) or len(old_nums) != len(new_nums):
        diff.other(path, f"{old!r} -> {new!r}", gated)
        return
    for a, b in zip(old_nums, new_nums):
        if a != b and (gated or (INTEGER.fullmatch(a) and INTEGER.fullmatch(b))):
            diff.other(path, f"{old!r} -> {new!r}", gated)
            return
        diff.number(path, float(a), float(b))


def _json(diff: FileDiff, path: str, old, new, gated: bool) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            # adding or dropping a gate key moves that gate
            moved = gated or bool((old.keys() ^ new.keys()) & GATE_KEYS)
            diff.other(path, f"keys {sorted(old)} -> {sorted(new)}", moved)
        for key in (k for k in old if k in new):
            _json(diff, f"{path}.{key}" if path else key, old[key], new[key], gated or key in GATE_KEYS)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            # entries of lists of different lengths need not correspond
            diff.other(path, f"length {len(old)} -> {len(new)}", gated)
            return
        for k, (a, b) in enumerate(zip(old, new)):
            _json(diff, f"{path}[{k}]", a, b, gated)
        return
    if isinstance(old, float) and isinstance(new, float):
        if gated and old != new:
            diff.other(path, f"{old!r} -> {new!r}", True)
        else:
            diff.number(path, old, new)
        return
    if isinstance(old, str) and isinstance(new, str):
        _text(diff, path, old, new, gated)
        return
    if old != new or type(old) is not type(new):
        diff.other(path, f"{old!r} -> {new!r}", gated)


def compare_file(rel: str, old: bytes, new: bytes) -> FileDiff:
    diff = FileDiff()
    gated = Path(rel).name == EXIT_CODES
    if rel.endswith(".json"):
        try:
            old_doc, new_doc = json.loads(old), json.loads(new)
        except ValueError:
            pass  # not valid JSON on one side: compare as text
        else:
            _json(diff, "", old_doc, new_doc, gated)
            return diff
    old_lines = old.decode(errors="replace").splitlines()
    new_lines = new.decode(errors="replace").splitlines()
    if len(old_lines) != len(new_lines):
        diff.other("", f"line count {len(old_lines)} -> {len(new_lines)}", gated)
        return diff
    for k, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        _text(diff, f"line {k}", a, b, gated)
    return diff


def compare_trees(parent: Path, change: Path) -> tuple[list[str], bool]:
    """Report lines for every file of either tree, and whether any gate
    value moved."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(parent), files(change)
    lines: list[str] = []
    counts = {"same": 0, "layout": 0, "changed": 0, "added": 0, "removed": 0}
    gate_moves = 0
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            status, detail = "removed", []
        elif rel not in old_files:
            status, detail = "added", []
        else:
            old, new = (parent / rel).read_bytes(), (change / rel).read_bytes()
            if old == new:
                status, detail = "same", []
            else:
                diff = compare_file(rel, old, new)
                moved = diff.max_at is not None or diff.changes or diff.gate
                status = "changed" if moved else "layout"
                gate_moves += len(diff.gate)
                if diff.max_at is not None:
                    rel = f"{rel}  max|delta| {diff.max_delta:.3g} at {diff.max_at or '(top)'}"
                detail = [f"    GATE {g}" for g in diff.gate]
                detail += [f"    discrete {c}" for c in diff.changes[:SHOWN_CHANGES]]
                if len(diff.changes) > SHOWN_CHANGES:
                    detail.append(f"    ... {len(diff.changes) - SHOWN_CHANGES} more discrete changes")
        counts[status] += 1
        lines.append(f"{status:<8} {rel}")
        lines.extend(detail)
    summary = ", ".join(f"{n} {k}" for k, n in counts.items())
    lines.append(f"{summary}; {gate_moves} gate changes")
    return lines, gate_moves > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="output tree of the parent checkout")
    parser.add_argument("change", type=Path, help="output tree of the changed checkout")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    lines, moved = compare_trees(args.parent, args.change)
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
