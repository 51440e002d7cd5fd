"""Hash-based node filtering (paper Section 4.2, Filter; Fig. 5).

Nodes are grouped by a hash of their *effective* state — the qubit mapping
assuming all in-flight SWAPs take effect, together with per-qubit scheduling
progress.  Within a group two checks run:

* **Equivalence** — a node identical to a stored one (same cycle, same
  per-qubit release times, same in-flight gate finish times) is dropped
  (Fig. 5a).
* **Comparative analysis (dominance)** — node ``A`` is dropped when some
  stored ``B`` with the same effective state finishes every started gate no
  later and releases every physical qubit no later, at a cycle no later
  (Fig. 5b).  Conversely a stored node dominated by a newcomer is lazily
  *killed*: it stays in the priority queue but is skipped when popped.

When constructed with a :class:`~repro.obs.MetricsRegistry` the filter
mirrors its drop counters into ``filter.*`` metrics so snapshots taken
mid-search (or on budget exhaustion) see pruning behavior over time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.trace import (
    PRUNE_BOUND_KILL,
    PRUNE_CLOSED_DOMINANCE,
    PRUNE_DOMINANCE,
    PRUNE_DOMINANCE_KILL,
    PRUNE_EQUIVALENCE,
)
from .kernels.api import KernelBackend, pure_dominates, pure_profile
from .problem import MappingProblem
from .state import SearchNode


class _Entry:
    __slots__ = ("time", "qfree", "gate_finish", "node")

    def __init__(self, time, qfree, gate_finish, node):
        self.time = time
        self.qfree = qfree
        self.gate_finish = gate_finish
        self.node = node


#: The reference implementations now live with the kernel backends
#: (kernels/api.py) so compiled variants can shadow them without an
#: import cycle; these aliases keep this module's historical names.
_profile = pure_profile
_dominates = pure_dominates


class StateFilter:
    """Equivalence + dominance filter over generated nodes.

    Usage: call :meth:`admit` on every freshly generated node; a ``False``
    return means the node is redundant and must not be queued.  Stored
    nodes that become dominated are marked ``killed`` (the A* loop skips
    killed nodes when popping).
    """

    def __init__(
        self,
        problem: MappingProblem,
        dominance: bool = True,
        live_only: bool = False,
        closed_dominance: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        trace=None,
        kernel: Optional[KernelBackend] = None,
    ) -> None:
        self._problem = problem
        self._dominance = dominance
        self._live_only = live_only
        #: Let *closed* (already expanded) entries dominate newcomers that
        #: are not their own wait-descendants.  Sound for optimal-depth
        #: search: a closed node's coverage of a dominated newcomer runs
        #: through its already-enumerated subtree, and the only children
        #: remaining in its bucket — pure wait-children — are exempted by
        #: an exact parent-chain test, so that subtree is never severed
        #: (the circularity that forbids naive closed-node dominance; see
        #: ``admit``).  Off for all-optima enumeration, which must keep
        #: equal-depth alternatives.
        self._closed_dominance = closed_dominance
        #: Optional :class:`~repro.obs.trace.TraceRecorder`; when set,
        #: every drop/kill is attributed (``equivalence`` / ``dominance``
        #: / ``dominance_kill`` / ``incumbent_bound_kill``).
        self._trace = trace
        self._kernel = kernel if kernel is not None else KernelBackend()
        # The compiled backend's fused bucket scan replaces the python
        # admit loop — but only uninstrumented: metrics/trace need the
        # per-comparison attribution the python scan provides.  The
        # semantics (and counters) are identical either way.
        fused = (
            metrics is None
            and trace is None
            and not closed_dominance
            and self._kernel.admit_scan is not None
        )
        self._admit_scan = self._kernel.admit_scan if fused else None
        self._entry_type = self._kernel.make_entry if fused else _Entry
        self._table: Dict[Tuple, List[_Entry]] = {}
        self.equivalent_dropped = 0
        self.dominated_dropped = 0
        self.closed_dominated = 0
        self.killed = 0
        # Pre-bound instruments: the hot admit() path pays one None check.
        if metrics is not None:
            self._m_equivalent = metrics.counter("filter.equivalent_dropped")
            self._m_dominated = metrics.counter("filter.dominated_dropped")
            self._m_closed = metrics.counter("filter.closed_dominated")
            self._m_killed = metrics.counter("filter.killed")
            self._m_group_size = metrics.histogram("filter.group_size")
        else:
            self._m_equivalent = None
            self._m_dominated = None
            self._m_closed = None
            self._m_killed = None
            self._m_group_size = None

    def admit(self, node: SearchNode) -> bool:
        """Consider ``node``; True if it should enter the priority queue.

        Every scan over a group compacts it: dead entries (killed nodes,
        and dropped ones in ``live_only`` mode) are written back out of
        the bucket even when the newcomer is rejected early, so hot
        buckets no longer accumulate corpses between :meth:`compact`
        calls.
        """
        kernel = self._kernel
        key = kernel.filter_key(node)
        qfree, gate_finish = kernel.profile(self._problem, node)
        entry = self._entry_type(node.time, qfree, gate_finish, node)
        bucket = self._table.get(key)
        if bucket is None:
            self._table[key] = [entry]
            if self._m_group_size is not None:
                self._m_group_size.observe(1)
            return True
        if self._admit_scan is not None:
            code, new_bucket, killed_now = self._admit_scan(
                bucket, entry, self._dominance, self._live_only
            )
            if code == 1:
                self.equivalent_dropped += 1
                if new_bucket is not None:
                    self._table[key] = new_bucket
                return False
            if code == 2:
                self.dominated_dropped += 1
                if new_bucket is not None:
                    self._table[key] = new_bucket
                return False
            self._table[key] = new_bucket
            if killed_now:
                self.killed += killed_now
            return True
        survivors: List[_Entry] = []
        for index, existing in enumerate(bucket):
            if existing.node.killed:
                continue
            if self._live_only and existing.node.dropped:
                continue
            equivalent = (
                existing.time == entry.time
                and existing.qfree == entry.qfree
                and existing.gate_finish == entry.gate_finish
            )
            if equivalent:
                self.equivalent_dropped += 1
                if self._m_equivalent is not None:
                    self._m_equivalent.inc()
                if self._trace is not None:
                    self._trace.prune(PRUNE_EQUIVALENCE, node=node)
                # Write back the compacted prefix so dead entries found
                # during this scan don't linger on the bucket.
                if len(survivors) < index:
                    self._table[key] = survivors + bucket[index:]
                return False
            # Dominance may by default only be exercised by *open* nodes
            # (still in the priority queue) — the paper compares expanded
            # nodes "to all the previous nodes (in the priority queue)".
            # A closed node's coverage of the newcomer runs through its
            # own descendants, one of which may BE the newcomer (e.g. the
            # wait-child realizing a pending SWAP); dropping it would
            # sever the only path that justified the domination.  With
            # ``closed_dominance`` an expanded entry also dominates
            # unless the newcomer is its own wait-descendant: only pure
            # wait-children stay in the dominator's bucket (started gates
            # advance ``ptr``, started SWAPs change the effective
            # mapping), so walking the newcomer's parent chain while it
            # remains in this bucket decides descendance exactly — and a
            # non-descendant newcomer is covered outright by the closed
            # node's already-enumerated subtree, whose wait-spine is
            # itself descendant-exempt and therefore never severed.
            existing_closed = existing.node.dropped
            if (
                self._dominance
                and (
                    not existing_closed
                    or (
                        self._closed_dominance
                        and not self._wait_descendant(node, existing.node)
                    )
                )
                and _dominates(existing, entry)
            ):
                if existing_closed:
                    self.closed_dominated += 1
                    if self._m_closed is not None:
                        self._m_closed.inc()
                    if self._trace is not None:
                        self._trace.prune(PRUNE_CLOSED_DOMINANCE, node=node)
                else:
                    self.dominated_dropped += 1
                    if self._m_dominated is not None:
                        self._m_dominated.inc()
                    if self._trace is not None:
                        self._trace.prune(PRUNE_DOMINANCE, node=node)
                if len(survivors) < index:
                    self._table[key] = survivors + bucket[index:]
                return False
            survivors.append(existing)
        kept: List[_Entry] = []
        for existing in survivors:
            if (
                self._dominance
                and not existing.node.dropped
                and _dominates(entry, existing)
            ):
                existing.node.killed = True
                self.killed += 1
                if self._m_killed is not None:
                    self._m_killed.inc()
                if self._trace is not None:
                    self._trace.prune(
                        PRUNE_DOMINANCE_KILL, node=existing.node
                    )
            else:
                kept.append(existing)
        kept.append(entry)
        self._table[key] = kept
        if self._m_group_size is not None:
            self._m_group_size.observe(len(kept))
        return True

    def _wait_descendant(self, node: SearchNode, ancestor: SearchNode) -> bool:
        """True when ``node`` descends from ``ancestor`` via pure waits.

        Wait-children share their parent's effective-state bucket, so the
        chain of same-key ancestors is exactly the wait-spine; the walk
        stops at the first ancestor in a different bucket (a few steps at
        most).  An in-flight-free ancestor has no wait-children at all,
        so the walk is skipped outright.
        """
        if not ancestor.inflight:
            return False
        key = self._kernel.filter_key(node)
        parent = node.parent
        while parent is not None:
            if parent is ancestor:
                return True
            if self._kernel.filter_key(parent) != key:
                return False
            parent = parent.parent
        return False

    @property
    def num_states(self) -> int:
        """Number of distinct effective states seen so far."""
        return len(self._table)

    def admit_all(
        self, nodes: List[SearchNode], admitted: List[SearchNode]
    ) -> None:
        """:meth:`admit` each of ``nodes`` in order; append the admitted
        ones to ``admitted`` (one expansion's children)."""
        admit = self.admit
        for node in nodes:
            if admit(node):
                admitted.append(node)

    def kill_above_bound(self, bound: int) -> int:
        """Kill open stored nodes whose ``f`` strictly exceeds ``bound``.

        Called when the incumbent upper bound tightens: an open node with
        ``f > bound`` can only reach terminals deeper than a schedule we
        already hold (``h`` is admissible), so it is lazily killed — it
        stays in the priority queue but is skipped when popped, and its
        filter entry is dropped so the bucket scan no longer walks it.
        Closed (expanded) nodes are left alone; their ``f`` no longer
        gates anything.

        Returns the number of nodes killed (also added to the running
        ``killed`` counter and the ``filter.killed`` metric).
        """
        killed_now = 0
        for key, bucket in list(self._table.items()):
            survivors = []
            for entry in bucket:
                node = entry.node
                if not node.killed and not node.dropped and node.f > bound:
                    node.killed = True
                    killed_now += 1
                    continue
                if not node.killed:
                    survivors.append(entry)
            if len(survivors) != len(bucket):
                if survivors:
                    self._table[key] = survivors
                else:
                    del self._table[key]
        if killed_now:
            self.killed += killed_now
            if self._m_killed is not None:
                self._m_killed.inc(killed_now)
            if self._trace is not None:
                self._trace.prune(PRUNE_BOUND_KILL, count=killed_now)
        return killed_now

    def release(self) -> None:
        """Drop every entry, freeing the node graph they pin.

        Called on search abort so the hundreds of thousands of retained
        nodes die by reference counting while the cyclic collector is
        still paused (see ``gcpause``) instead of being walked by the
        deferred generation-0 scan after the pause lifts.
        """
        self._table = {}

    def compact(self) -> None:
        """Drop entries whose nodes are dead (killed or dropped).

        Only meaningful in ``live_only`` mode, where dead entries can
        never filter anything again; long practical-mode runs call this
        on every queue trim to keep memory proportional to the open list.
        """
        if not self._live_only:
            return
        table: Dict[Tuple, List[_Entry]] = {}
        for key, bucket in self._table.items():
            alive = [
                e for e in bucket
                if not e.node.killed and not e.node.dropped
            ]
            if alive:
                table[key] = alive
        self._table = table
