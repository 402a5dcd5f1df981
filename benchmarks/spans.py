"""In-memory spans for the traced pass, and the per-layer metrics made from them.

A span is opened by the benchmark around one public call into a layer.  It
records its name, start and end (monotonic ns), the span it was opened
inside, and an op id shared by every span of one top-level call.  A span may
also carry one count `n` (elements streamed, pairs visited, ...).  Spans stay
in memory and are written out as JSON lines when the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_now = time.monotonic_ns


class Span:
    __slots__ = ("recorder", "name", "id", "parent", "op", "start", "end", "n")

    def __init__(self, recorder: Spans, name: str):
        self.recorder = recorder
        self.name = name
        self.n = None

    def __enter__(self):
        rec = self.recorder
        self.id = len(rec.spans)
        rec.spans.append(self)
        if rec.stack:
            outer = rec.stack[-1]
            self.parent, self.op = outer.id, outer.op
        else:
            self.parent, self.op = None, rec.ops
            rec.ops += 1
        rec.stack.append(self)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        self.end = _now()
        self.recorder.stack.pop()
        return False


class Spans:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.ops = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "parent": s.parent,
                    "op": s.op,
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "n": s.n,
                }
                fh.write(json.dumps(record) + "\n")


class _NoSpan:
    """Stand-in for an untraced pass: entering it records nothing."""

    __slots__ = ("n",)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NoSpans:
    _span = _NoSpan()

    def span(self, name: str) -> _NoSpan:
        return self._span


# --- per-layer metrics ------------------------------------------------------

# name -> (unit, better); BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "cli.op_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "constructions.build_s": ("s", "lower"),
    "groups.chain_s": ("s", "lower"),
    "groups.base_len": ("count", "lower"),
    "groups.stream_s": ("s", "lower"),
    "groups.elements": ("count", "lower"),
    "groups.elements_per_s": ("1/s", "higher"),
    "groups.pi_set_s": ("s", "lower"),
    "groups.code_s": ("s", "lower"),
    "groups.pi_size": ("count", "lower"),
    "groups.pi_share": ("ratio", "lower"),
    "groups.pi_set_w2_s": ("s", "lower"),
    "groups.subgroups_s": ("s", "lower"),
    "groups.subgroups": ("count", "higher"),
    "coherence.join_scan_s": ("s", "lower"),
    "coherence.meet_scan_s": ("s", "lower"),
    "coherence.chain_s": ("s", "lower"),
    "coherence.join_pairs": ("count", "lower"),
    "coherence.meet_pairs": ("count", "lower"),
    "coherence.pairs_per_s": ("1/s", "higher"),
    "partitions.join_us": ("us", "lower"),
    "partitions.meet_us": ("us", "lower"),
    "witnesses.decide_s": ("s", "lower"),
    "witnesses.build_s": ("s", "lower"),
    "witnesses.decisions": ("count", "higher"),
    "witnesses.feasible_share": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

# Counts that depend only on the code and the seed; they must repeat exactly.
EXACT_COUNTS = (
    "groups.base_len",
    "groups.elements",
    "groups.pi_size",
    "groups.subgroups",
    "coherence.join_pairs",
    "coherence.meet_pairs",
    "witnesses.decisions",
)


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus its direct children's durations
    (spans of one pass are single-threaded, so children never overlap).
    Top-level `groups.*` and `coherence.analyze_*` spans are the probes run
    after the workload; nested ones were opened inside the workload's ops.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        key = s["name"] if s["parent"] is None else "%s<nested>" % s["name"]
        ns = s["end_ns"] - s["start_ns"]
        dur[key] += ns / 1e9
        self_s[key] += (ns - child_ns[s["id"]]) / 1e9
        count[key] += s["n"] or 0
        calls[key] += 1

    m = {
        "cli.op_s": dur["cli.op"],
        "cli.overhead_s": self_s["cli.op"],
        "constructions.build_s": dur["constructions.build_group"]
        + dur["constructions.build_group<nested>"],
        "groups.chain_s": dur["groups.chain"],
        "groups.base_len": count["groups.chain"],
        "groups.stream_s": dur["groups.stream"],
        "groups.elements": count["groups.stream"],
        "groups.pi_set_s": dur["groups.pi_set"],
        "groups.pi_size": count["groups.pi_set"],
        "groups.pi_set_w2_s": dur["groups.pi_set_w2"],
        "groups.subgroups_s": dur["groups.subgroups<nested>"],
        "groups.subgroups": count["groups.subgroups<nested>"],
        "coherence.join_scan_s": self_s["coherence.analyze_join"],
        "coherence.meet_scan_s": self_s["coherence.analyze_meet"],
        "coherence.chain_s": self_s["coherence.analyze_chain"],
        "coherence.join_pairs": count["coherence.analyze_join"],
        "coherence.meet_pairs": count["coherence.analyze_meet"],
        "partitions.join_us": _ratio(dur["partitions.join_codes"] * 1e6, count["partitions.join_codes"]),
        "partitions.meet_us": _ratio(dur["partitions.meet_codes"] * 1e6, count["partitions.meet_codes"]),
        "witnesses.decide_s": dur["witnesses.decide"],
        "witnesses.build_s": dur["witnesses.build"],
        "witnesses.decisions": calls["witnesses.decide"],
        "witnesses.feasible_share": _ratio(count["witnesses.decide"], calls["witnesses.decide"]),
    }
    m["groups.elements_per_s"] = _ratio(m["groups.elements"], m["groups.stream_s"])
    m["groups.code_s"] = m["groups.pi_set_s"] - m["groups.stream_s"] if m["groups.pi_size"] else 0.0
    m["groups.pi_share"] = _ratio(m["groups.pi_size"], m["groups.elements"])
    m["coherence.pairs_per_s"] = _ratio(
        m["coherence.join_pairs"] + m["coherence.meet_pairs"],
        m["coherence.join_scan_s"] + m["coherence.meet_scan_s"],
    )
    return m
