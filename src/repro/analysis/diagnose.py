"""Offline analysis of expansion-level search traces.

``repro diagnose <trace.jsonl>`` — :func:`diagnose` digests a
:class:`~repro.obs.trace.TraceRecorder` stream into the evidence the
pruning literature actually argues from: a per-rule **pruning
attribution** breakdown (which rule killed how many subtrees, split by
search phase and by progress quartile), a **heuristic-accuracy audit**
along the optimal path (h(v) vs. true remaining depth — slack ≥ 0
everywhere is an empirical admissibility proof, and the slack
histogram quantifies how tight §5.1's bound runs), **queue/f-frontier
dynamics**, and the **incumbent-tightening timeline** of the anytime
bound.  On a complete (``mode="full"``) trace the per-record stream is
reconciled *exactly* against the run's reported counters — any
mismatch means the trace layer and the search disagree and is reported
as an inconsistency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.sinks import read_jsonl
from ..obs.trace import (
    EV_EXPAND,
    EV_INCUMBENT,
    EV_PRUNE,
    EV_SOLUTION,
    EV_SUMMARY,
    REASON_TO_STAT,
)

#: Stat keys a trace's per-record stream can be reconciled against.
RECONCILED_STATS = (
    "nodes_expanded",
    "pruned_by_bound",
    "filtered_equivalent",
    "filtered_dominated",
    "killed",
    "swaps_restricted",
    "symmetry_pruned",
    "root_candidates_restricted",
    "closed_dominated",
)


def load_trace(path: str) -> List[Dict]:
    """Trace records from a telemetry JSONL file (other types skipped)."""
    return [
        record for record in read_jsonl(path)
        if record.get("type") == "trace"
    ]


# ----------------------------------------------------------------------
# Trace digestion
# ----------------------------------------------------------------------

def _authoritative_summary(records: Sequence[Dict]) -> Optional[Dict]:
    """The summary holding the run's true totals.

    A fan-out trace carries one per-root ``scope="search"`` summary plus
    the coordinator's ``scope="aggregate"`` total; the aggregate wins.
    """
    summaries = [r for r in records if r.get("ev") == EV_SUMMARY]
    if not summaries:
        return None
    for record in reversed(summaries):
        if record.get("scope") == "aggregate":
            return record
    return summaries[-1]


def _attribution(
    records: Sequence[Dict], total_expansions: int
) -> Dict[str, Dict]:
    """Per-reason breakdown of the recorded prune events."""
    out: Dict[str, Dict] = {}
    quarter = max(1, total_expansions // 4) if total_expansions else 1
    for record in records:
        if record.get("ev") != EV_PRUNE:
            continue
        reason = record.get("reason", "?")
        entry = out.setdefault(reason, {
            "recorded": 0,
            "stat": REASON_TO_STAT.get(reason),
            "phases": {},
            "by_quartile": [0, 0, 0, 0],
        })
        count = int(record.get("count", 1))
        entry["recorded"] += count
        phase = record.get("phase", "unattributed")
        entry["phases"][phase] = entry["phases"].get(phase, 0) + count
        if total_expansions:
            quartile = min(3, int(record.get("idx", 0)) // quarter)
            entry["by_quartile"][quartile] += count
    return out


def _heuristic_audit(records: Sequence[Dict]) -> Optional[Dict]:
    """h(v) vs. true remaining depth along the (first) optimal path.

    Walks parent ids from the recorded solution terminal back to a root
    through the expand records.  For every node on that path the true
    cost-to-go is ``depth - g(v)`` (prefix nodes sit at cycle 0, so
    their true remaining cost is the full depth); admissibility demands
    ``h(v) <= depth - g(v)``, i.e. ``slack >= 0``.
    """
    solutions = [r for r in records if r.get("ev") == EV_SOLUTION]
    if not solutions:
        return None
    # The winner: smallest depth, earliest root for determinism.
    solution = min(
        solutions,
        key=lambda r: (r.get("depth", 0), r.get("root", -1), r.get("idx", 0)),
    )
    depth = int(solution["depth"])
    root_tag = solution.get("root", -1)
    by_id: Dict[Tuple, Dict] = {
        (r.get("root", -1), r["node"]): r
        for r in records
        if r.get("ev") == EV_EXPAND and "node" in r
    }
    path: List[Dict] = []
    slack_histogram: Dict[int, int] = {}
    admissible = True
    tightness: List[float] = []
    parent = solution.get("parent", -1)
    complete_path = True
    while parent != -1:
        record = by_id.get((root_tag, parent))
        if record is None:
            complete_path = False  # evicted/sampled out or foreign chunk
            break
        g = int(record.get("cycle", 0))
        h = int(record.get("h", 0))
        true_remaining = depth - g
        slack = true_remaining - h
        slack_histogram[slack] = slack_histogram.get(slack, 0) + 1
        if slack < 0:
            admissible = False
        if true_remaining > 0:
            tightness.append(h / true_remaining)
        path.append({
            "node": record["node"],
            "cycle": g,
            "h": h,
            "true_remaining": true_remaining,
            "slack": slack,
            "phase": record.get("phase", "search"),
        })
        parent = record.get("parent", -1)
    path.reverse()
    return {
        "depth": depth,
        "root": root_tag,
        "path_nodes": len(path),
        "path_complete": complete_path,
        "admissible_on_path": admissible,
        "slack_histogram": dict(sorted(slack_histogram.items())),
        "mean_tightness": (
            round(sum(tightness) / len(tightness), 4) if tightness else None
        ),
        "path": path,
    }


def _frontier(records: Sequence[Dict]) -> Optional[Dict]:
    """Queue-size / f-frontier dynamics over the recorded expansions."""
    expands = [r for r in records if r.get("ev") == EV_EXPAND]
    if not expands:
        return None
    heaps = [int(r.get("heap", 0)) for r in expands]
    fs = [int(r.get("f", 0)) for r in expands]
    phases: Dict[str, int] = {}
    actions: Dict[str, int] = {}
    for record in expands:
        phase = record.get("phase", "search")
        phases[phase] = phases.get(phase, 0) + 1
        action = record.get("action", "?")
        actions[action] = actions.get(action, 0) + 1
    # Downsample a (idx, heap, f) series to ~32 points for rendering.
    stride = max(1, len(expands) // 32)
    series = [
        {
            "idx": r.get("idx", 0),
            "heap": int(r.get("heap", 0)),
            "f": int(r.get("f", 0)),
        }
        for r in expands[::stride]
    ]
    return {
        "recorded_expansions": len(expands),
        "heap_max": max(heaps),
        "heap_final": heaps[-1],
        "heap_mean": round(sum(heaps) / len(heaps), 1),
        "f_first": fs[0],
        "f_last": fs[-1],
        "phases": dict(sorted(phases.items())),
        "actions": dict(sorted(actions.items())),
        "series": series,
    }


def _incumbent_timeline(records: Sequence[Dict]) -> List[Dict]:
    events = [
        {
            "depth": int(r.get("depth", 0)),
            "source": r.get("source", "?"),
            "idx": r.get("idx", 0),
            "elapsed": r.get("elapsed", 0.0),
            "root": r.get("root", -1),
        }
        for r in records
        if r.get("ev") == EV_INCUMBENT
    ]
    events.sort(key=lambda e: (e["elapsed"], e["idx"]))
    return events


def diagnose(records: Sequence[Dict]) -> Dict:
    """Digest trace records into the full diagnostics report.

    Returns a JSON-serializable dict; see :func:`render_report` for the
    human rendering.  ``report["consistent"]`` is only meaningful when
    ``report["complete"]`` — an incomplete (ring/sampled) trace cannot
    reproduce exact totals from records and is not expected to.
    """
    records = list(records)
    summary = _authoritative_summary(records)
    stats = dict(summary.get("stats", {})) if summary else {}
    total_expansions = int(
        stats.get("nodes_expanded", 0)
        or (summary or {}).get("expansions", 0)
    )
    attribution = _attribution(records, total_expansions)

    # Recorded totals per stats counter (several reasons can feed one).
    recorded_counters: Dict[str, int] = {}
    for reason, entry in attribution.items():
        stat = entry["stat"]
        if stat is not None:
            recorded_counters[stat] = (
                recorded_counters.get(stat, 0) + entry["recorded"]
            )
    recorded_counters["nodes_expanded"] = sum(
        1 for r in records if r.get("ev") == EV_EXPAND
    )

    # Completeness: every contributing recorder must have been lossless.
    summaries = [r for r in records if r.get("ev") == EV_SUMMARY]
    complete = bool(summaries) and all(
        s.get("complete", False) for s in summaries
    )

    mismatches: Dict[str, Dict[str, int]] = {}
    if complete and stats:
        for key in RECONCILED_STATS:
            expected = stats.get(key)
            if expected is None:
                continue
            got = recorded_counters.get(key, 0)
            if int(expected) != got:
                mismatches[key] = {"stats": int(expected), "trace": got}

    return {
        "records": len(records),
        "complete": complete,
        "consistent": not mismatches if complete else None,
        "mismatches": mismatches,
        "stats": stats,
        "recorded_counters": dict(sorted(recorded_counters.items())),
        "attribution": dict(sorted(attribution.items())),
        "heuristic_audit": _heuristic_audit(records),
        "frontier": _frontier(records),
        "incumbent_timeline": _incumbent_timeline(records),
        "roots": sorted({
            r.get("root", -1) for r in records if "root" in r
        }),
    }


def render_report(report: Dict) -> str:
    """Human-readable rendering of a :func:`diagnose` report."""
    lines: List[str] = []
    stats = report.get("stats", {})
    lines.append(
        f"trace: {report['records']} records, "
        f"{'complete' if report['complete'] else 'partial (ring/sampled)'}"
    )
    if stats:
        cells = "  ".join(
            f"{key}={stats[key]}" for key in RECONCILED_STATS
            if key in stats
        )
        lines.append(f"run counters: {cells}")

    lines.append("")
    lines.append("pruning attribution (subtree kills per rule):")
    attribution = report.get("attribution", {})
    if not attribution:
        lines.append("  (no prune events recorded)")
    for reason, entry in attribution.items():
        phases = " ".join(
            f"{phase}={count}"
            for phase, count in sorted(entry["phases"].items())
        ) or "-"
        quartiles = "/".join(str(c) for c in entry["by_quartile"])
        stat = entry["stat"] or "-"
        lines.append(
            f"  {reason:22s} {entry['recorded']:>8}  -> {stat:20s} "
            f"phases[{phases}]  quartiles[{quartiles}]"
        )

    audit = report.get("heuristic_audit")
    lines.append("")
    if audit is None:
        lines.append("heuristic audit: no solution recorded")
    else:
        verdict = (
            "admissible" if audit["admissible_on_path"]
            else "VIOLATED (h exceeded true remaining depth!)"
        )
        lines.append(
            f"heuristic audit (optimal path, depth {audit['depth']}): "
            f"{verdict}"
        )
        lines.append(
            f"  {audit['path_nodes']} path nodes"
            f"{'' if audit['path_complete'] else ' (path truncated)'}, "
            f"mean h/true tightness "
            f"{audit['mean_tightness'] if audit['mean_tightness'] is not None else '-'}"
        )
        histogram = audit["slack_histogram"]
        if histogram:
            lines.append(
                "  slack histogram: "
                + "  ".join(f"{k}:{v}" for k, v in histogram.items())
            )

    frontier = report.get("frontier")
    lines.append("")
    if frontier is None:
        lines.append("frontier: no expand records")
    else:
        lines.append(
            f"frontier: {frontier['recorded_expansions']} recorded "
            f"expansions, heap max {frontier['heap_max']} "
            f"mean {frontier['heap_mean']}, f {frontier['f_first']} -> "
            f"{frontier['f_last']}"
        )
        lines.append(
            "  phases: "
            + "  ".join(
                f"{k}={v}" for k, v in frontier["phases"].items()
            )
        )
        lines.append(
            "  actions: "
            + "  ".join(
                f"{k}={v}" for k, v in frontier["actions"].items()
            )
        )

    timeline = report.get("incumbent_timeline", [])
    lines.append("")
    if not timeline:
        lines.append("incumbent timeline: (no incumbent events)")
    else:
        lines.append("incumbent timeline:")
        for event in timeline:
            root = f" root={event['root']}" if event.get("root", -1) != -1 \
                else ""
            lines.append(
                f"  t={event['elapsed']:<9} idx={event['idx']:<8} "
                f"depth={event['depth']} ({event['source']}){root}"
            )

    lines.append("")
    if report["complete"]:
        if report["consistent"]:
            lines.append(
                "counter reconciliation: OK — trace reproduces the run's "
                "counters exactly"
            )
        else:
            lines.append("counter reconciliation: MISMATCH")
            for key, pair in report["mismatches"].items():
                lines.append(
                    f"  {key}: stats={pair['stats']} trace={pair['trace']}"
                )
    else:
        lines.append(
            "counter reconciliation: skipped (partial trace; summary "
            "counts remain exact)"
        )
    return "\n".join(lines)

