"""Preprocessed mapping-problem instance shared by the search components.

Bundles the circuit, architecture and latency model together with the
derived structures every search step needs: per-logical-qubit gate chains
(the dependency DAG of Fig. 7 in per-qubit form), per-gate latencies, and
the architecture's distance matrix.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..arch.coupling import CouplingGraph
from ..circuit.circuit import Circuit
from ..circuit.latency import LatencyModel, uniform_latency

#: Cap on the per-problem memo dictionaries (``_pending_rows``,
#: ``_window_plans``, ``_active_masks``, and the compiled kernel's row
#: cache).  A safety valve for enormous runs: past the cap the caches
#: stop admitting new entries and count the overflow instead of growing
#: without bound.
PROBLEM_CACHE_CAP = 32768


class WindowPlan(NamedTuple):
    """One compiled look-ahead window (see :meth:`MappingProblem.window_plan`).

    Attributes:
        rows: The window's two-qubit gates in program order, as
            ``(l1, l2, latency, run1, run2, before1, before2)``;
            ``run1`` / ``run2`` are the total latency of the window's
            single-qubit gates on each operand's chain since that chain's
            previous two-qubit row, and ``before1`` / ``before2`` the
            total latency of all the window's gates on that chain ahead
            of the row (runs included).
        tails: ``(logical, latency)`` of the window's single-qubit gates
            after a chain's last two-qubit row, for chains where that
            total is nonzero.
        pending: Gates in the window after the cut.
        truncated: True when the ``4 * window`` cut dropped gates.
    """

    rows: Tuple[Tuple[int, int, int, int, int, int, int], ...]
    tails: Tuple[Tuple[int, int], ...]
    pending: int
    truncated: bool


class MappingProblem:
    """An instance of the qubit-mapping problem.

    Attributes:
        circuit: The logical input circuit.
        coupling: The hardware coupling graph.
        latency: Gate latency model.
        num_logical: Number of logical qubits.
        num_physical: Number of physical qubits (``>= num_logical``).
        gate_qubits: Per-gate operand tuples.
        gate_latency: Per-gate latency in cycles.
        swap_len: Latency of an inserted SWAP.
        seq: ``seq[l]`` lists the gate indices touching logical qubit ``l``
            in program order.
        gate_pos: ``gate_pos[g][l]`` is the position of gate ``g`` within
            ``seq[l]``.
        dist: All-pairs physical shortest-path distances (2-D, row per
            physical qubit).
        dist_flat: The same matrix flattened row-major into one tuple;
            ``dist_flat[p * num_physical + q] == dist[p][q]``.  The search
            hot paths use this single-index form.
        gate_l1 / gate_l2: Flat per-gate operand arrays; ``gate_l2[g]`` is
            ``-1`` for single-qubit gates.  Avoids tuple unpacking in the
            heuristic's inner loop.
        gate_p1 / gate_p2: Flat per-gate chain positions of the gate within
            ``seq[gate_l1[g]]`` / ``seq[gate_l2[g]]`` (``-1`` when absent).
        gate_next: ``gate_next[g]`` — per-operand successor gate index on
            each operand's chain (``-1`` past the chain end), aligned with
            ``gate_qubits[g]``.
        own2: ``own2[l]`` — the two-qubit gates *owned* by logical ``l``
            (a gate is owned by its first operand), in program order.
            Every two-qubit gate appears in exactly one owner list, so the
            pending two-qubit gates under pointers ``ptr`` are exactly the
            merge of the per-owner suffixes ``own2[l][own2_start[l][ptr[l]]:]``
            — already-sorted runs, no set building required.
        own2_start: ``own2_start[l][p]`` — index into ``own2[l]`` of the
            first owned gate whose chain position is ``>= p``.
        single_prefix: ``single_prefix[l][i]`` — total latency of the
            single-qubit gates among ``seq[l][:i]``.  Because every gate at
            chain position ``>= ptr[l]`` is pending and two-qubit gates are
            enumerated explicitly, any chain segment between consecutive
            pending two-qubit gates is all singles, and its latency is one
            subtraction of prefix sums.
    """

    def __init__(
        self,
        circuit: Circuit,
        coupling: CouplingGraph,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        if circuit.num_qubits > coupling.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} logical qubits but "
                f"{coupling.name or 'architecture'} has only "
                f"{coupling.num_qubits} physical qubits"
            )
        self.circuit = circuit
        self.coupling = coupling
        self.latency = latency if latency is not None else uniform_latency()
        self.num_logical = circuit.num_qubits
        self.num_physical = coupling.num_qubits
        self.gate_qubits: Tuple[Tuple[int, ...], ...] = tuple(
            g.qubits for g in circuit
        )
        self.gate_latency: Tuple[int, ...] = tuple(
            self.latency.gate_latency(g) for g in circuit
        )
        self.swap_len: int = self.latency.swap_latency()
        self.num_gates = len(circuit)

        self.seq: List[List[int]] = [[] for _ in range(self.num_logical)]
        self.gate_pos: List[Dict[int, int]] = []
        for index, qubits in enumerate(self.gate_qubits):
            positions: Dict[int, int] = {}
            for q in qubits:
                positions[q] = len(self.seq[q])
                self.seq[q].append(index)
            self.gate_pos.append(positions)

        self.dist = coupling.distance_matrix
        # The flattened matrix only depends on the coupling graph, so it
        # is memoized on the graph instance: every problem sharing the
        # architecture (e.g. a corpus sweep) reuses one tuple.
        flat = getattr(coupling, "_dist_flat", None)
        if flat is None:
            flat = tuple(d for row in self.dist for d in row)
            coupling._dist_flat = flat
        self.dist_flat: Tuple[int, ...] = flat
        self.edges = coupling.edges
        self.neighbors = [coupling.neighbors(p) for p in range(self.num_physical)]

        # Flat per-gate operand/position arrays for the heuristic hot loop.
        gate_l1, gate_l2, gate_p1, gate_p2 = [], [], [], []
        for index, qubits in enumerate(self.gate_qubits):
            l1 = qubits[0]
            l2 = qubits[1] if len(qubits) > 1 else -1
            gate_l1.append(l1)
            gate_l2.append(l2)
            gate_p1.append(self.gate_pos[index][l1])
            gate_p2.append(self.gate_pos[index][l2] if l2 >= 0 else -1)
        self.gate_l1: Tuple[int, ...] = tuple(gate_l1)
        self.gate_l2: Tuple[int, ...] = tuple(gate_l2)
        self.gate_p1: Tuple[int, ...] = tuple(gate_p1)
        self.gate_p2: Tuple[int, ...] = tuple(gate_p2)
        #: One row per gate for the heuristic's inner loop:
        #: ``(l1, l2, latency, chain_pos1, chain_pos2)`` — one tuple
        #: unpack instead of five indexed lookups.
        self.gate_row: Tuple[Tuple[int, int, int, int, int], ...] = tuple(
            (gate_l1[g], gate_l2[g], self.gate_latency[g],
             gate_p1[g], gate_p2[g])
            for g in range(self.num_gates)
        )
        #: True when the circuit contains single-qubit gates; all-two-qubit
        #: circuits skip the single-run folding bookkeeping entirely.
        self.has_singles: bool = any(
            len(qubits) == 1 for qubits in self.gate_qubits
        )
        #: Closed-form SWAP-split cache (see ``heuristic._swap_split_delay``),
        #: keyed ``(d << 28) | (slack1 << 14) | slack2`` — per-problem so the
        #: constant ``swap_len`` stays out of the key.
        self.split_lut: Dict[int, int] = {}
        #: ``ptr -> tuple of gate_row entries`` cache for the heuristic:
        #: the pending two-qubit gates (and their operand rows) depend
        #: only on the pointer vector, which far fewer distinct values
        #: take than there are generated nodes.
        self._pending_rows: Dict[Tuple[int, ...], Tuple] = {}
        #: ``(ptr, window) -> WindowPlan`` cache for the practical
        #: mapper's look-ahead scorer (see :meth:`window_plan`); capped
        #: like ``_pending_rows``.
        self._window_plans: Dict[Tuple[Tuple[int, ...], int], WindowPlan] = {}
        #: ``(pos, ptr) -> active-position bitmask`` cache for the
        #: expander's SWAP-candidate restriction (see
        #: :meth:`active_swap_mask`); capped like ``_pending_rows``.
        self._active_masks: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
        #: Per-cache count of entries dropped because the cache hit
        #: :data:`PROBLEM_CACHE_CAP` — surfaced in search stats as
        #: ``problem_cache_overflow`` instead of silently stop-filling.
        self.cache_overflows: Dict[str, int] = {}

        # Per-gate successors along each operand chain.
        self.gate_next: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                self.seq[q][self.gate_pos[index][q] + 1]
                if self.gate_pos[index][q] + 1 < len(self.seq[q])
                else -1
                for q in qubits
            )
            for index, qubits in enumerate(self.gate_qubits)
        )

        # Owner-run structures: every two-qubit gate is owned by its first
        # operand, single-qubit gates by their only operand.  The pending
        # set under any pointer vector is then a union of per-owner chain
        # suffixes — disjoint, precomputed, and already in program order.
        self.own2: List[Tuple[int, ...]] = []
        self.own2_start: List[Tuple[int, ...]] = []
        self.single_prefix: List[Tuple[int, ...]] = []
        owned2_pos: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_logical)
        ]
        for index, qubits in enumerate(self.gate_qubits):
            owner = qubits[0]
            if len(qubits) > 1:
                owned2_pos[owner].append((self.gate_pos[index][owner], index))
        for logical in range(self.num_logical):
            chain = self.seq[logical]
            chain_len = len(chain)
            pairs = owned2_pos[logical]  # built in program order
            self.own2.append(tuple(g for _p, g in pairs))
            start = [0] * (chain_len + 1)
            cursor = 0
            for p in range(chain_len + 1):
                while cursor < len(pairs) and pairs[cursor][0] < p:
                    cursor += 1
                start[p] = cursor
            self.own2_start.append(tuple(start))
            prefix = [0] * (chain_len + 1)
            for i, gate in enumerate(chain):
                lat = self.gate_latency[gate]
                prefix[i + 1] = prefix[i] + (
                    lat if len(self.gate_qubits[gate]) == 1 else 0
                )
            self.single_prefix.append(tuple(prefix))

    def pending_two_qubit_gates(self, ptr: Tuple[int, ...]) -> List[int]:
        """Pending (unstarted) two-qubit gate indices, in program order.

        Merges the precomputed per-owner suffix runs instead of building
        and sorting a set: each run is ascending and the runs are
        disjoint, so one Timsort pass over the concatenation is a pure
        run merge.
        """
        pending: List[int] = []
        own2 = self.own2
        own2_start = self.own2_start
        for logical in range(self.num_logical):
            start = own2_start[logical][ptr[logical]]
            run = own2[logical]
            if start < len(run):
                pending.extend(run[start:])
        pending.sort()
        return pending

    def pending_rows(self, ptr: Tuple[int, ...]) -> Tuple:
        """``gate_row`` entries of the pending two-qubit gates under ``ptr``.

        Program order, cached per pointer vector: the heuristic evaluates
        many nodes that share scheduling progress but differ in mapping,
        and the pending enumeration only depends on ``ptr``.  The cache
        is capped at :data:`PROBLEM_CACHE_CAP` vectors as a safety valve
        for enormous runs; overflow is counted in ``cache_overflows``.
        """
        cache = self._pending_rows
        rows = cache.get(ptr)
        if rows is None:
            gate_row = self.gate_row
            rows = tuple(
                gate_row[g] for g in self.pending_two_qubit_gates(ptr)
            )
            if len(cache) < PROBLEM_CACHE_CAP:
                cache[ptr] = rows
            else:
                self.note_cache_overflow("pending_rows")
        return rows

    def window_plan(self, ptr: Tuple[int, ...], window: int) -> WindowPlan:
        """The look-ahead window of the practical mapper under ``ptr``.

        The window holds the first ``window`` unstarted gates of every
        qubit chain, merged in program order and cut to the earliest
        ``4 * window`` gates.  The plan compiles it once per ``(ptr,
        window)`` into the form the windowed scorer consumes (see
        :class:`WindowPlan`), so the thousands of nodes that share a
        pointer vector but differ in mapping or timing skip the set
        union, sort and cut.  Capped at :data:`PROBLEM_CACHE_CAP` plans;
        overflow is counted in ``cache_overflows``.
        """
        key = (ptr, window)
        cache = self._window_plans
        plan = cache.get(key)
        if plan is None:
            seq = self.seq
            selected = set()
            for logical in range(self.num_logical):
                start = ptr[logical]
                selected.update(seq[logical][start: start + window])
            pending = sorted(selected)
            truncated = len(pending) > 4 * window
            if truncated:
                pending = pending[: 4 * window]
            gate_l1 = self.gate_l1
            gate_l2 = self.gate_l2
            gate_latency = self.gate_latency
            run = [0] * self.num_logical
            before = [0] * self.num_logical
            rows = []
            for gate in pending:
                l1 = gate_l1[gate]
                l2 = gate_l2[gate]
                length = gate_latency[gate]
                if l2 < 0:
                    run[l1] += length
                    before[l1] += length
                else:
                    rows.append((
                        l1, l2, length,
                        run[l1], run[l2], before[l1], before[l2],
                    ))
                    run[l1] = 0
                    run[l2] = 0
                    before[l1] += length
                    before[l2] += length
            plan = WindowPlan(
                tuple(rows),
                tuple((l, tail) for l, tail in enumerate(run) if tail),
                len(pending),
                truncated,
            )
            if len(cache) < PROBLEM_CACHE_CAP:
                cache[key] = plan
            else:
                self.note_cache_overflow("window_plans")
        return plan

    def active_swap_mask(
        self, pos: Tuple[int, ...], ptr: Tuple[int, ...]
    ) -> int:
        """Bitmask of *active* physical qubits under ``(pos, ptr)``.

        A physical qubit is active when it holds an operand of a pending
        two-qubit gate, or lies on **any** shortest path between the two
        operand positions of such a gate (``dist(a, r) + dist(r, b) ==
        dist(a, b)`` over the 1-D distance table).  SWAPs incident to no
        active qubit only rearrange bystander qubits — qubits with no
        pending two-qubit interaction, whose positions block no pending
        route — and can therefore never shorten a schedule: every pending
        operand can already reach any position through SWAPs incident to
        its own (active) position, and a SWAP costs the same whether the
        stepped-onto position is occupied or free.

        Cached per ``(pos, ptr)``: many generated nodes share both the
        mapping and the progress vector (they differ in timing only), and
        the cache is capped as a safety valve for enormous runs.

        Returns ``-1`` (all qubits active) when any pending operand is
        still unplaced — the restriction is only meaningful once every
        interacting qubit has a position.
        """
        key = (pos, ptr)
        cache = self._active_masks
        mask = cache.get(key)
        if mask is not None:
            return mask
        mask = 0
        dist_flat = self.dist_flat
        num_physical = self.num_physical
        seen_pairs = set()
        for l1, l2, _length, _p1c, _p2c in self.pending_rows(ptr):
            p1, p2 = pos[l1], pos[l2]
            if p1 < 0 or p2 < 0:
                return -1  # unplaced operand: no sound restriction
            pair = (p1, p2) if p1 < p2 else (p2, p1)
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            mask |= (1 << p1) | (1 << p2)
            row1 = p1 * num_physical
            row2 = p2 * num_physical
            d = dist_flat[row1 + p2]
            if d > 1:
                for r in range(num_physical):
                    if dist_flat[row1 + r] + dist_flat[row2 + r] == d:
                        mask |= 1 << r
        if len(cache) < PROBLEM_CACHE_CAP:
            cache[key] = mask
        else:
            self.note_cache_overflow("active_masks")
        return mask

    def note_cache_overflow(self, name: str) -> None:
        """Record one entry refused by a capped per-problem cache."""
        self.cache_overflows[name] = self.cache_overflows.get(name, 0) + 1

    def cache_overflow_total(self) -> int:
        """Total entries refused across all capped per-problem caches."""
        return sum(self.cache_overflows.values())

    def check_initial_mapping(self, mapping: Sequence[int]) -> Tuple[int, ...]:
        """``mapping`` as a position tuple, once it is a valid placement.

        ``mapping[l]`` is the physical home of logical ``l``.  Raises
        ``ValueError`` unless there is one entry per logical qubit, every
        entry lies in ``range(num_physical)``, and no physical qubit is
        used twice.
        """
        pos = tuple(mapping)
        if len(pos) != self.num_logical:
            raise ValueError(
                f"initial mapping has {len(pos)} entries for "
                f"{self.num_logical} logical qubits"
            )
        for logical, physical in enumerate(pos):
            if not 0 <= physical < self.num_physical:
                raise ValueError(
                    f"initial mapping places logical {logical} on {physical}, "
                    f"outside physical qubits 0..{self.num_physical - 1}"
                )
        if len(set(pos)) != len(pos):
            raise ValueError("initial mapping must be injective over logicals")
        return pos

    def ideal_depth(self) -> int:
        """Depth on an all-to-all architecture (cost lower bound)."""
        return self.circuit.depth(self.latency)

    def trivial_mapping(self) -> Tuple[int, ...]:
        """The identity initial mapping (logical ``l`` on physical ``l``)."""
        return tuple(range(self.num_logical))

    def is_gate_started(self, gate_index: int, ptr: Tuple[int, ...]) -> bool:
        """True when ``gate_index`` has been scheduled under pointers ``ptr``.

        ``ptr[l]`` is the per-qubit count of scheduled gates; a gate is
        started once the pointer of (any of) its operand qubits has moved
        past it — the expander bumps all operand pointers atomically.
        """
        qubit = self.gate_qubits[gate_index][0]
        return ptr[qubit] > self.gate_pos[gate_index][qubit]
