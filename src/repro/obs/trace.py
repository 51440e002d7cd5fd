"""Expansion-level search tracing with exact prune attribution.

End-of-run counters (``MappingResult.stats``) say *how much* each
search-space reduction pruned; they cannot say *where* in the search a
rule fired or *which* rule killed a given subtree.  A
:class:`TraceRecorder` captures that: one compact JSONL record per pop
(node id, parent id, cycle, g/h/f, heap size, action class) plus a
*prune record* naming the exact rule every time a node or subtree is
discarded:

============================  ==========================================
reason tag                    rule (where it lives)
============================  ==========================================
``incumbent_bound``           push/pop f-prune against the incumbent
                              upper bound (``astar.push`` / pop re-check)
``ideal_depth_bound``         mode-2 prefix prune against the all-to-all
                              critical path (``ideal_lb``)
``equivalence``               Fig. 5a equivalence hit (``StateFilter``)
``dominance``                 Fig. 5b newcomer dominated by a stored node
``dominance_kill``            stored node lazily killed by a dominating
                              newcomer
``incumbent_bound_kill``      stored node killed when the incumbent
                              tightened (``kill_above_bound``)
``swap_restriction``          active-SWAP candidate restriction
                              (``startable_actions``)
``symmetry_quotient``         mode-2 automorphism orbit deduplication
``root_restriction``          mode-2 root-mapping candidate restriction
                              (``core.bounds.root_mapping_allowed``)
``closed_dominance``          dominance by a closed in-flight-free node
                              (``StateFilter``, outside all-optima runs)
============================  ==========================================

Records carry ``"type": "trace"`` so they interleave cleanly with the
existing telemetry record types (``span`` / ``metrics`` / ``progress``)
in one JSONL stream.  Three capture modes keep full QFT-8 runs
tractable:

* ``full`` — every record (the only mode whose per-record stream is
  *complete*; ``repro diagnose`` reproduces the run's counters exactly
  from it);
* ``ring`` — a bounded ring buffer of expand/prune records (the newest
  ``ring_size`` survive); incumbent/solution/summary records are pinned
  and never evicted;
* ``sample`` — record every ``sample_every``-th expand/prune record.

Whatever the mode, the recorder keeps **exact** per-reason counts
internally and emits them in the final ``summary`` record, so the
attribution totals are always trustworthy — only the per-record detail
is subject to eviction/sampling.

Fan-out integration: a recorder is not picklable (it may own a file
sink), so the mode-2 coordinator ships a :class:`TraceSpec` to each
worker; the worker records in memory (``keep_records``), returns
``drain()`` with its outcome, and the coordinator re-emits the chunk
through :meth:`TraceRecorder.emit_raw` with a ``root`` tag added.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from .sinks import Sink

# --- capture modes -----------------------------------------------------
MODE_FULL = "full"
MODE_RING = "ring"
MODE_SAMPLE = "sample"
TRACE_MODES = (MODE_FULL, MODE_RING, MODE_SAMPLE)

DEFAULT_RING_SIZE = 65536
DEFAULT_SAMPLE_EVERY = 64

# --- event kinds -------------------------------------------------------
EV_EXPAND = "expand"
EV_PRUNE = "prune"
EV_INCUMBENT = "incumbent"
EV_SOLUTION = "solution"
EV_SUMMARY = "summary"

#: Events never evicted from the ring and never sampled out — they are
#: rare and each one matters (incumbent timeline, solution identity,
#: exact final counts).
PINNED_EVENTS = frozenset({EV_INCUMBENT, EV_SOLUTION, EV_SUMMARY})

# --- prune attribution tags --------------------------------------------
PRUNE_INCUMBENT_BOUND = "incumbent_bound"
PRUNE_IDEAL_DEPTH = "ideal_depth_bound"
PRUNE_EQUIVALENCE = "equivalence"
PRUNE_DOMINANCE = "dominance"
PRUNE_DOMINANCE_KILL = "dominance_kill"
PRUNE_BOUND_KILL = "incumbent_bound_kill"
PRUNE_SWAP_RESTRICTION = "swap_restriction"
PRUNE_SYMMETRY = "symmetry_quotient"
PRUNE_ROOT_RESTRICTION = "root_restriction"
PRUNE_CLOSED_DOMINANCE = "closed_dominance"

#: Which ``MappingResult.stats`` counter each reason feeds — the exact
#: correspondence ``repro diagnose`` uses to reconcile a full trace
#: against the run's reported counters.
REASON_TO_STAT: Dict[str, str] = {
    PRUNE_INCUMBENT_BOUND: "pruned_by_bound",
    PRUNE_IDEAL_DEPTH: "pruned_by_bound",
    PRUNE_EQUIVALENCE: "filtered_equivalent",
    PRUNE_DOMINANCE: "filtered_dominated",
    PRUNE_DOMINANCE_KILL: "killed",
    PRUNE_BOUND_KILL: "killed",
    PRUNE_SWAP_RESTRICTION: "swaps_restricted",
    PRUNE_SYMMETRY: "symmetry_pruned",
    PRUNE_ROOT_RESTRICTION: "root_candidates_restricted",
    PRUNE_CLOSED_DOMINANCE: "closed_dominated",
}

#: Incumbent-record provenance values.
INCUMBENT_SEED = "seed"
INCUMBENT_TERMINAL = "terminal"
INCUMBENT_SHARED = "shared"


@dataclass(frozen=True)
class TraceSpec:
    """Picklable recipe for rebuilding a recorder in a fan-out worker."""

    mode: str = MODE_FULL
    ring_size: int = DEFAULT_RING_SIZE
    sample_every: int = DEFAULT_SAMPLE_EVERY


def _action_class(node) -> str:
    """Coarse label for the action set that created ``node``."""
    if node.parent is None:
        return "root"
    if node.in_prefix:
        return "prefix"
    actions = node.actions
    if not actions:
        return "wait"
    kinds = {action[0] for action in actions}
    if kinds == {"g"}:
        return "gates"
    if kinds == {"s"}:
        return "swaps"
    return "mixed"


class TraceRecorder:
    """Low-overhead per-expansion search trace.

    Args:
        sink: Destination for trace records; ``None`` keeps them in
            memory (see ``keep_records``).
        mode: ``"full"``, ``"ring"`` or ``"sample"``.
        ring_size: Ring capacity for ``"ring"`` mode.
        sample_every: Keep every Nth expand/prune record in ``"sample"``
            mode.
        keep_records: Mirror emitted records into ``self.records`` (the
            default when no sink is given — fan-out workers drain this).
        owns_sink: Close the sink from :meth:`close` (the CLI hands the
            recorder a dedicated file sink; set False when sharing).

    The search loop only ever calls :meth:`expand` / :meth:`prune` /
    :meth:`incumbent` / :meth:`solution` — each is a dict build plus one
    sink/list append, and each call site is guarded by a single
    ``trace is not None`` check so the untraced path cost is unchanged.
    """

    def __init__(
        self,
        sink: Optional[Sink] = None,
        mode: str = MODE_FULL,
        ring_size: int = DEFAULT_RING_SIZE,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        keep_records: Optional[bool] = None,
        owns_sink: bool = True,
    ) -> None:
        if mode not in TRACE_MODES:
            raise ValueError(
                f"unknown trace mode {mode!r}; expected one of {TRACE_MODES}"
            )
        self.sink = sink
        self.mode = mode
        self.ring_size = max(1, int(ring_size))
        self.sample_every = max(1, int(sample_every))
        self.owns_sink = owns_sink
        if keep_records is None:
            keep_records = sink is None
        self.records: Optional[List[Dict]] = [] if keep_records else None
        self._ring: Optional[deque] = (
            deque(maxlen=self.ring_size) if mode == MODE_RING else None
        )
        self._pinned: List[Dict] = []
        # Exact totals, maintained regardless of eviction/sampling.
        self.expansions = 0
        self.counts: Dict[str, int] = {}
        self.evicted = 0
        self.sampled_out = 0
        self._samplable = 0
        self._next_id = 0
        self._t0 = _time.perf_counter()
        self._closed = False

    # -- wiring --------------------------------------------------------
    def spec(self) -> TraceSpec:
        """The picklable recipe matching this recorder's capture mode."""
        return TraceSpec(
            mode=self.mode,
            ring_size=self.ring_size,
            sample_every=self.sample_every,
        )

    @classmethod
    def from_spec(cls, spec: TraceSpec) -> "TraceRecorder":
        """In-memory recorder for a fan-out worker (drained, not sunk)."""
        return cls(
            sink=None,
            mode=spec.mode,
            ring_size=spec.ring_size,
            sample_every=spec.sample_every,
            keep_records=True,
        )

    def node_id(self, node) -> int:
        """Stable per-recorder id for ``node`` (assigned on first use)."""
        tid = node._tid
        if tid < 0:
            tid = self._next_id
            self._next_id += 1
            node._tid = tid
        return tid

    @property
    def complete(self) -> bool:
        """True when no expand/prune record was evicted or sampled out."""
        return self.evicted == 0 and self.sampled_out == 0

    # -- internal routing ----------------------------------------------
    def _out(self, record: Dict, pinned: bool = False) -> None:
        if self._ring is not None and not pinned:
            if len(self._ring) == self._ring.maxlen:
                self.evicted += 1
            self._ring.append(record)
            return
        if self._ring is not None:
            self._pinned.append(record)
            return
        if self.sink is not None:
            self.sink.emit(record)
        if self.records is not None:
            self.records.append(record)

    def _take_sample(self) -> bool:
        """Stride counter over samplable events; True keeps the record."""
        take = self._samplable % self.sample_every == 0
        self._samplable += 1
        return take

    # -- recording API ---------------------------------------------------
    def expand(self, node, heap_size: int) -> None:
        """Record one pop/expansion of ``node``."""
        self.expansions += 1
        nid = self.node_id(node)
        parent = node.parent
        pid = self.node_id(parent) if parent is not None else -1
        if self.mode == MODE_SAMPLE and not self._take_sample():
            self.sampled_out += 1
            return
        self._out({
            "type": "trace",
            "ev": EV_EXPAND,
            "idx": self.expansions - 1,
            "node": nid,
            "parent": pid,
            "cycle": node.time,
            "h": node.h,
            "f": node.f,
            "heap": heap_size,
            "action": _action_class(node),
            "phase": "prefix" if node.in_prefix else "search",
        })

    def prune(self, reason: str, node=None, count: int = 1) -> None:
        """Attribute ``count`` discarded nodes/candidates to ``reason``.

        ``node`` is the attribution point: the discarded node itself for
        push/pop/filter prunes, or the *expanding* node whose candidate
        set was trimmed for ``swap_restriction`` / prefix
        ``symmetry_quotient`` (the trimmed siblings were never built).
        """
        self.counts[reason] = self.counts.get(reason, 0) + count
        if self.mode == MODE_SAMPLE and not self._take_sample():
            self.sampled_out += 1
            return
        record: Dict = {
            "type": "trace",
            "ev": EV_PRUNE,
            "idx": self.expansions,
            "reason": reason,
        }
        if count != 1:
            record["count"] = count
        if node is not None:
            record["node"] = self.node_id(node)
            parent = node.parent
            record["parent"] = (
                self.node_id(parent) if parent is not None else -1
            )
            record["cycle"] = node.time
            # ``f`` is only meaningful for bound prunes (push computes it
            # before pruning); filter rejections happen pre-heuristic.
            if reason in (PRUNE_INCUMBENT_BOUND, PRUNE_IDEAL_DEPTH):
                record["f"] = node.f
            record["phase"] = "prefix" if node.in_prefix else "search"
        self._out(record)

    def incumbent(self, depth: int, source: str) -> None:
        """Record an incumbent-bound tightening (the anytime timeline)."""
        self._out({
            "type": "trace",
            "ev": EV_INCUMBENT,
            "idx": self.expansions,
            "depth": depth,
            "source": source,
            "elapsed": round(_time.perf_counter() - self._t0, 6),
        }, pinned=True)

    def solution(self, node, depth: int) -> None:
        """Record a popped optimal terminal (anchors the path audit)."""
        parent = node.parent
        self._out({
            "type": "trace",
            "ev": EV_SOLUTION,
            "idx": self.expansions,
            "node": self.node_id(node),
            "parent": self.node_id(parent) if parent is not None else -1,
            "depth": depth,
            "elapsed": round(_time.perf_counter() - self._t0, 6),
        }, pinned=True)

    def summary(self, stats: Dict, scope: str = "search") -> None:
        """Record exact totals + the run's stats dict.

        ``scope="search"`` closes one search loop (each fan-out root
        emits its own); ``scope="aggregate"`` is the fan-out
        coordinator's cross-root total — the authoritative record
        ``repro diagnose`` reconciles against.
        """
        self._out({
            "type": "trace",
            "ev": EV_SUMMARY,
            "scope": scope,
            "mode": self.mode,
            "complete": self.complete,
            "expansions": self.expansions,
            "evicted": self.evicted,
            "sampled_out": self.sampled_out,
            "counts": {k: v for k, v in sorted(self.counts.items()) if v},
            "stats": dict(sorted(stats.items())),
        }, pinned=True)

    def emit_raw(self, record: Dict) -> None:
        """Pass a pre-built record through (fan-out chunk re-emission).

        Bypasses sampling (the producing worker already applied its own)
        and does **not** touch the exact counters — worker counts arrive
        through the aggregate stats, double-counting them here would
        skew the coordinator's own summary.
        """
        self._out(record, pinned=record.get("ev") in PINNED_EVENTS)

    def drain(self) -> List[Dict]:
        """Everything recorded so far, in order (worker → coordinator)."""
        if self._ring is not None:
            return list(self._ring) + list(self._pinned)
        return list(self.records or [])

    def close(self) -> None:
        """Flush ring contents to the sink and close it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._ring is not None and self.sink is not None:
            for record in self._ring:
                self.sink.emit(record)
            for record in self._pinned:
                self.sink.emit(record)
        if self.sink is not None and self.owns_sink:
            self.sink.close()
