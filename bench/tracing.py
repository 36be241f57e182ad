"""In-memory span recorder wrapped around domsplit's public functions.

Each function is wrapped where its caller looks the name up: a module that
did ``from .grassmann import worst_nearest_angle`` holds its own reference,
so the wrapper goes on ``multicone.worst_nearest_angle``, not on the name in
``grassmann``.  Spans carry (name, parent, start, end, note); the note holds
the counts read off the call's arguments or result at that boundary.  Self
times are computed afterwards by subtracting child spans.

``linalg`` and ``errors`` are leaf helpers of a few microseconds per call;
their cost stays inside their callers.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _gap_note(args, kwargs, report):
    stats = report.per_length
    return {
        "words": sum(s.words_examined for s in stats),
        "exact": sum(1 for s in stats if s.exact),
        "lengths": len(stats),
    }


def _pairs_note(args, kwargs, result):
    first, second = args[0], args[1]
    return {"pairs": len(first) * len(second)}


def _invariance_note(args, kwargs, result):
    ok, margin = result
    return {"ok": bool(ok), "margin": float(margin)}


# (module, attribute, span name, note); modules are relative to ``domsplit``.
# ``example4d.strictly_invariant`` is the lambda scan, the calls inside
# ``build_multicone`` go through ``multicone.strictly_invariant``.
SITES = (
    ("cli", "main", "cli.main", None),
    ("words", "is_dominated", "words.is_dominated", None),
    ("words", "enumerate_gaps", "words.enumerate_gaps", _gap_note),
    ("words", "log_gap_ratio", "words.log_gap_ratio", None),
    ("words", "scaled_word_product", "words.scaled_word_product", None),
    ("multicone", "build_multicone", "multicone.build_multicone", None),
    ("multicone", "strictly_invariant", "multicone.strictly_invariant", _invariance_note),
    ("multicone", "attractor", "multicone.attractor", lambda a, k, r: {"points": len(r.points)}),
    ("multicone", "worst_nearest_angle", "grassmann.kernel", _pairs_note),
    ("multicone", "frame_stack_distances", "grassmann.kernel", _pairs_note),
    ("multicone", "projectivize", "grassmann.projectivize", None),
    ("multicone", "line_trace", "grassmann.line_trace", None),
    ("splitting", "splitting_from_window", "splitting.splitting_from_window", None),
    ("splitting", "verify_domination", "splitting.verify_domination", lambda a, k, r: {"ok": r.passes}),
    ("splitting", "default_window_length", "splitting.default_window_length", None),
    ("example4d", "verify_example", "example4d.verify_example", lambda a, k, r: {"lam": r.lam}),
    ("example4d", "strictly_invariant", "example4d.scan", _invariance_note),
    ("example4d", "build_multicone", "multicone.build_multicone", None),
    ("example4d", "pairwise_distances", "grassmann.kernel", _pairs_note),
    ("example4d", "projectivize", "grassmann.projectivize", None),
    ("example4d", "line_trace", "grassmann.line_trace", None),
    ("example4d", "curve_family", "example4d.curve_family", None),
    ("example4d", "skewness_margin", "example4d.skewness_margin", None),
)

INVARIANCE = ("multicone.strictly_invariant", "example4d.scan")


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, stack[-1] if stack else -1, time.monotonic(), 0.0, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.monotonic()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, note in SITES:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans: list[list], duration) -> dict[str, float]:
    """Per-layer times and counts of one traced pass; ``duration`` gives a
    span's seconds."""
    dur = [duration(s) for s in spans]
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s[0]].append(sid)

    def total(*names):
        return sum(dur[sid] for n in names for sid in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def notes(*names):
        return [spans[sid][4] for n in names for sid in by_name[n] if spans[sid][4] is not None]

    def child_time(parents, children):
        """Time of spans named in ``children`` whose parent is named in ``parents``."""
        return sum(
            dur[sid]
            for n in children
            for sid in by_name[n]
            if spans[sid][1] >= 0 and spans[spans[sid][1]][0] in parents
        )

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    gaps = notes("words.enumerate_gaps")
    words = sum(g["words"] for g in gaps)
    m["words.enumerate_gaps.s"] = total("words.enumerate_gaps")
    m["words.enumerate_gaps.calls"] = calls("words.enumerate_gaps")
    m["words.words_examined"] = words
    m["words.words_per_s"] = ratio(words, m["words.enumerate_gaps.s"])
    m["words.beam_exact_frac"] = ratio(sum(g["exact"] for g in gaps), sum(g["lengths"] for g in gaps))
    m["words.verdict_self_s"] = total("words.is_dominated") - child_time(
        ("words.is_dominated",), ("words.enumerate_gaps",)
    )
    m["words.is_dominated.calls"] = calls("words.is_dominated")
    m["words.log_gap_ratio.calls"] = calls("words.log_gap_ratio")
    m["words.scaled_word_product.calls"] = calls("words.scaled_word_product")

    m["grassmann.kernel.s"] = total("grassmann.kernel")
    m["grassmann.kernel.calls"] = calls("grassmann.kernel")
    m["grassmann.plane_pairs"] = sum(n["pairs"] for n in notes("grassmann.kernel"))
    m["grassmann.pairs_per_s"] = ratio(m["grassmann.plane_pairs"], m["grassmann.kernel.s"])
    m["grassmann.projectivize.s"] = total("grassmann.projectivize")
    m["grassmann.line_trace.s"] = total("grassmann.line_trace")

    checks = notes(*INVARIANCE)
    builds = calls("multicone.build_multicone")
    m["multicone.strictly_invariant.s"] = total(*INVARIANCE)
    m["multicone.strictly_invariant.calls"] = calls(*INVARIANCE)
    m["multicone.strictly_invariant.pass_frac"] = ratio(sum(c["ok"] for c in checks), len(checks))
    m["multicone.invariance_calls_per_build"] = ratio(
        sum(
            1
            for n in INVARIANCE
            for sid in by_name[n]
            if spans[sid][1] >= 0 and spans[spans[sid][1]][0] == "multicone.build_multicone"
        ),
        builds,
    )
    m["multicone.invariance_self_s"] = m["multicone.strictly_invariant.s"] - child_time(
        INVARIANCE, ("grassmann.kernel",)
    )
    m["multicone.build_multicone.s"] = total("multicone.build_multicone")
    m["multicone.build_multicone.calls"] = builds
    m["multicone.build_self_s"] = m["multicone.build_multicone.s"] - child_time(
        ("multicone.build_multicone",),
        ("multicone.attractor", "words.is_dominated") + INVARIANCE,
    )
    m["multicone.attractor.s"] = total("multicone.attractor")
    m["multicone.attractor.points"] = sum(n["points"] for n in notes("multicone.attractor"))
    passing = [c["margin"] for c in checks if c["ok"]]
    m["multicone.invariance_margin_min"] = min(passing) if passing else 0.0

    verifies = notes("splitting.verify_domination")
    m["splitting.splitting_from_window.s"] = total("splitting.splitting_from_window")
    m["splitting.splitting_from_window.calls"] = calls("splitting.splitting_from_window")
    m["splitting.verify_domination.s"] = total("splitting.verify_domination")
    m["splitting.verify_domination.calls"] = calls("splitting.verify_domination")
    m["splitting.default_window_length.s"] = total("splitting.default_window_length")
    m["splitting.verify_pass_frac"] = ratio(sum(v["ok"] for v in verifies), len(verifies))

    lams = [n["lam"] for n in notes("example4d.verify_example") if n["lam"] is not None]
    m["example4d.verify_example.s"] = total("example4d.verify_example")
    m["example4d.scan.s"] = total("example4d.scan")
    m["example4d.scan.calls"] = calls("example4d.scan")
    m["example4d.curve_family.s"] = total("example4d.curve_family")
    m["example4d.skewness_margin.s"] = total("example4d.skewness_margin")
    m["example4d.selected_lambda"] = lams[0] if lams else 0.0

    m["cli.main.calls"] = calls("cli.main")
    m["cli.self_s"] = total("cli.main") - sum(
        dur[sid] for sid, s in enumerate(spans) if s[1] >= 0 and spans[s[1]][0] == "cli.main"
    )
    return m


# Counts that must repeat exactly on every pass of one commit and seed.
EXACT_KEYS = (
    "words.words_examined",
    "grassmann.plane_pairs",
    "multicone.strictly_invariant.calls",
    "multicone.invariance_margin_min",
    "example4d.selected_lambda",
)


def spans_payload(spans: list[list]) -> list[dict]:
    """Spans as JSON-ready records, times relative to the first span start."""
    if not spans:
        return []
    t0 = spans[0][2]
    return [
        {
            "id": sid,
            "name": s[0],
            "parent": s[1],
            "start_s": s[2] - t0,
            "end_s": s[3] - t0,
            **({"note": s[4]} if s[4] is not None else {}),
        }
        for sid, s in enumerate(spans)
    ]
