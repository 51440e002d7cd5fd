"""Node expansion: enumerate successor states (paper Section 4.2, Expander).

Given a node at an event time, the expander enumerates every compatible
(qubit-disjoint) set of startable actions — dependency-resolved original
gates whose operands are adjacent and idle, plus SWAPs on idle coupled
pairs — applies the three redundancy criteria, starts the chosen set, and
advances to the next finish event.

The practical mapper (Section 6.2) reuses this machinery with extra
restrictions: ready original gates are always started, candidate SWAPs are
limited to those relevant to the blocked CNOT frontier, and SWAPs that would
break a currently-satisfiable frontier gate are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .problem import MappingProblem
from .state import Action, K_GATE, K_SWAP, SearchNode


@dataclass
class ExpansionConfig:
    """Tuning knobs for node expansion.

    Attributes:
        greedy_gates: Start every startable original gate immediately
            (practical-mode relaxation; optimal mode must keep this False
            since delaying a gate can enable an earlier SWAP).
        frontier_swaps_only: Restrict candidate SWAPs to edges touching the
            current positions of logical qubits belonging to blocked
            frontier two-qubit gates.
        active_swaps_only: Restrict candidate SWAPs to edges incident to
            an *active* physical qubit — one holding an operand of a
            pending two-qubit gate, or lying on a shortest path between
            such an operand pair (see
            :meth:`~repro.core.problem.MappingProblem.active_swap_mask`).
            Unlike ``frontier_swaps_only`` this is loss-free for the
            admissible optimal search: it only discards SWAPs that shuffle
            bystander qubits, which no time-optimal schedule needs.  It
            does trim decorative same-depth schedules, so
            ``find_all_optimal`` runs with it off.
        protect_satisfied_frontier: Reject SWAPs that move an operand of a
            dependency-ready, coupling-satisfied two-qubit gate (the
            paper's "not allowing swaps that cause the executable gates on
            the CNOT frontier not executable").
        max_swaps_per_step: Cap on simultaneous SWAP starts per child
            (None = unlimited; practical mode uses a small cap to bound
            branching).
        max_candidate_swaps: Keep only this many candidate SWAPs, ranked
            by how much they shorten the blocked frontier's distances
            (None = keep all; practical mode uses a small pool).
    """

    greedy_gates: bool = False
    frontier_swaps_only: bool = False
    active_swaps_only: bool = False
    protect_satisfied_frontier: bool = False
    max_swaps_per_step: Optional[int] = None
    max_candidate_swaps: Optional[int] = None


OPTIMAL_EXPANSION = ExpansionConfig()

#: Optimal-mode expansion with the loss-free active-SWAP restriction on —
#: what :class:`~repro.core.astar.OptimalMapper` uses by default.
PRUNED_OPTIMAL_EXPANSION = ExpansionConfig(active_swaps_only=True)


def frontier_gates(problem: MappingProblem, node: SearchNode) -> List[int]:
    """Dependency-ready gates (every operand pointer rests on them).

    Cached on the node: the frontier depends only on ``ptr`` (never on
    the mapping), and the practical mapper asks for it several times per
    node (placement, startable actions, progress level).
    """
    cached = node._frontier
    if cached is not None:
        return cached
    ready: List[int] = []
    ptr = node.ptr
    seq = problem.seq
    gate_row = problem.gate_row
    for logical in range(problem.num_logical):
        index = ptr[logical]
        chain = seq[logical]
        if index >= len(chain):
            continue
        gate = chain[index]
        l1, l2, _length, p1c, p2c = gate_row[gate]
        if l2 < 0:
            ready.append(gate)
        elif ptr[l1] == p1c and ptr[l2] == p2c and logical == l1:
            # visit each two-qubit gate once (owner side only)
            ready.append(gate)
    ready.sort()
    node._frontier = ready
    return ready


def startable_actions(
    problem: MappingProblem,
    node: SearchNode,
    config: ExpansionConfig = OPTIMAL_EXPANSION,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[List[Action], List[Action]]:
    """Actions that may start at the node's current cycle.

    Args:
        counters: Optional mutable dict; when given,
            ``counters["swaps_restricted"]`` is incremented for every
            candidate SWAP the ``active_swaps_only`` rule discards.

    Returns:
        ``(gates, swaps)`` — startable original-gate actions and startable
        SWAP actions, each qubit-idle, dependency-resolved and coupling-
        compliant, with the cyclic-SWAP redundancy already removed.
    """
    busy_mask = 0
    pos = node.pos
    gate_qubits = problem.gate_qubits
    for _finish, kind, a, b in node.inflight:
        if kind == K_SWAP:
            busy_mask |= (1 << a) | (1 << b)
        else:
            for logical in gate_qubits[a]:
                busy_mask |= 1 << pos[logical]

    gates: List[Action] = []
    blocked_mask = 0
    protected_mask = 0
    dist_flat = problem.dist_flat
    num_physical = problem.num_physical

    for gate in frontier_gates(problem, node):
        qubits = gate_qubits[gate]
        if len(qubits) == 2:
            p1, p2 = pos[qubits[0]], pos[qubits[1]]
            if p1 < 0 or p2 < 0:
                continue  # practical mapper places qubits before this point
            pair_mask = (1 << p1) | (1 << p2)
            if dist_flat[p1 * num_physical + p2] != 1:
                blocked_mask |= pair_mask
                continue
            protected_mask |= pair_mask
            if busy_mask & pair_mask:
                continue
            gates.append(("g", gate))
        else:
            p1 = pos[qubits[0]]
            if p1 < 0 or busy_mask & (1 << p1):
                continue
            gates.append(("g", gate))

    swaps: List[Action] = []
    inv = node.inv
    last_swaps = node.last_swaps
    frontier_only = config.frontier_swaps_only
    protect = config.protect_satisfied_frontier
    active_mask = (
        problem.active_swap_mask(pos, node.ptr)
        if config.active_swaps_only
        else -1
    )
    restricted = 0
    for edge in problem.edges:
        p, q = edge
        pair_mask = (1 << p) | (1 << q)
        if busy_mask & pair_mask:
            continue
        if inv[p] < 0 and inv[q] < 0:
            continue  # moving two unused qubits accomplishes nothing
        if edge in last_swaps:
            continue  # cyclic SWAP: would cancel the one just completed
        if not (active_mask & pair_mask):
            restricted += 1  # touches no pending operand or routing path
            continue
        if frontier_only and not (blocked_mask & pair_mask):
            continue
        if protect and (protected_mask & pair_mask):
            continue
        swaps.append(("s", p, q))
    if restricted and counters is not None:
        counters["swaps_restricted"] = (
            counters.get("swaps_restricted", 0) + restricted
        )

    if (
        config.max_candidate_swaps is not None
        and len(swaps) > config.max_candidate_swaps
    ):
        blocked_pairs = _blocked_frontier_pairs(problem, node)

        def improvement(action: Action) -> int:
            _, p, q = action
            gain = 0
            for p1, p2 in blocked_pairs:
                before = dist_flat[p1 * num_physical + p2]
                a1 = q if p1 == p else (p if p1 == q else p1)
                a2 = q if p2 == p else (p if p2 == q else p2)
                gain += before - dist_flat[a1 * num_physical + a2]
            return gain

        swaps.sort(key=lambda a: (-improvement(a), a))
        swaps = swaps[: config.max_candidate_swaps]
    return gates, swaps


def _blocked_frontier_pairs(
    problem: MappingProblem, node: SearchNode
) -> List[Tuple[int, int]]:
    """Physical positions of blocked (non-adjacent) frontier CNOT pairs."""
    pairs: List[Tuple[int, int]] = []
    dist_flat = problem.dist_flat
    num_physical = problem.num_physical
    for gate in frontier_gates(problem, node):
        qubits = problem.gate_qubits[gate]
        if len(qubits) != 2:
            continue
        p1, p2 = node.pos[qubits[0]], node.pos[qubits[1]]
        if p1 >= 0 and p2 >= 0 and dist_flat[p1 * num_physical + p2] > 1:
            pairs.append((p1, p2))
    return pairs


def _action_mask(problem: MappingProblem, node: SearchNode, action: Action) -> int:
    """Bitmask of the physical qubits an action occupies."""
    if action[0] == "s":
        return (1 << action[1]) | (1 << action[2])
    mask = 0
    for logical in problem.gate_qubits[action[1]]:
        mask |= 1 << node.pos[logical]
    return mask


def enumerate_action_sets(
    problem: MappingProblem,
    node: SearchNode,
    gates: Sequence[Action],
    swaps: Sequence[Action],
    config: ExpansionConfig = OPTIMAL_EXPANSION,
    masks: Optional[Dict[Action, int]] = None,
) -> List[Tuple[Action, ...]]:
    """All compatible action subsets (including the empty set).

    In greedy-gate mode every startable gate is forced into each subset and
    only the SWAP choice varies; in optimal mode all subsets of the
    combined action list are generated.  Subsets whose qubits overlap are
    skipped during the recursion rather than generated and filtered.

    Args:
        masks: Optional precomputed ``action -> occupied-qubit bitmask``
            map (see :func:`expand`); recomputed per action when absent.
    """
    results: List[Tuple[Action, ...]] = []
    if masks is None:
        masks = {
            a: _action_mask(problem, node, a)
            for a in list(gates) + list(swaps)
        }

    if config.greedy_gates:
        base: List[Action] = []
        base_mask = 0
        for action in gates:
            mask = masks[action]
            if not (base_mask & mask):
                base.append(action)
                base_mask |= mask
        candidates = [
            (a, masks[a])
            for a in swaps
            if not (masks[a] & base_mask)
        ]
        _recurse_swaps(candidates, config.max_swaps_per_step, tuple(base),
                       results, 0, base_mask, [])
        return results

    actions = [(a, masks[a]) for a in list(gates) + list(swaps)]
    _recurse_subsets(actions, config.max_swaps_per_step, results, 0, 0, [], 0)
    return results


def _recurse_swaps(
    candidates: List[Tuple[Action, int]],
    limit: Optional[int],
    base: Tuple[Action, ...],
    results: List[Tuple[Action, ...]],
    start: int,
    mask: int,
    chosen: List[Action],
) -> None:
    """Greedy-mode SWAP-subset recursion (module-level: see _recurse_masked)."""
    results.append(base + tuple(chosen))
    if limit is not None and len(chosen) >= limit:
        return
    for i in range(start, len(candidates)):
        action, amask = candidates[i]
        if mask & amask:
            continue
        chosen.append(action)
        _recurse_swaps(candidates, limit, base, results, i + 1, mask | amask,
                       chosen)
        chosen.pop()


def _recurse_subsets(
    actions: List[Tuple[Action, int]],
    max_swaps: Optional[int],
    results: List[Tuple[Action, ...]],
    start: int,
    mask: int,
    chosen: List[Action],
    swap_count: int,
) -> None:
    """Optimal-mode subset recursion (module-level: see _recurse_masked)."""
    results.append(tuple(chosen))
    for i in range(start, len(actions)):
        action, amask = actions[i]
        if mask & amask:
            continue
        is_swap = action[0] == "s"
        if is_swap and max_swaps is not None and swap_count >= max_swaps:
            continue
        chosen.append(action)
        _recurse_subsets(actions, max_swaps, results, i + 1, mask | amask,
                         chosen, swap_count + (1 if is_swap else 0))
        chosen.pop()


def _recurse_masked(
    actions: List[Tuple[Action, int, bool]],
    results: List[Tuple[Tuple[Action, ...], int]],
    start: int,
    mask: int,
    chosen: List[Action],
    swap_budget: Optional[int],
    fresh: int,
) -> None:
    """Recursive worker of :func:`_enumerate_masked`.

    Deliberately a module-level function: a nested recursive closure
    references itself through its own cell and therefore forms a
    reference cycle *per expansion*, which is exactly the garbage the
    search loop pauses the cyclic collector to avoid (see ``gcpause``).
    """
    if fresh:
        results.append((tuple(chosen), mask))
    for i in range(start, len(actions)):
        action, amask, is_fresh = actions[i]
        if mask & amask:
            continue
        if action[0] == "s":
            if swap_budget is not None:
                if swap_budget == 0:
                    continue
                budget = swap_budget - 1
            else:
                budget = None
        else:
            budget = swap_budget
        chosen.append(action)
        _recurse_masked(actions, results, i + 1, mask | amask, chosen,
                        budget, fresh + (1 if is_fresh else 0))
        chosen.pop()


def _enumerate_masked(
    actions: List[Tuple[Action, int, bool]],
    max_swaps: Optional[int],
    prev_startable: FrozenSet[Action],
    include_empty: bool,
) -> List[Tuple[Tuple[Action, ...], int]]:
    """Optimal-mode action-set enumeration fused with the redundancy rule.

    Yields ``(action_set, occupied_mask)`` pairs, skipping sets made up
    entirely of actions the parent could already have started
    (``prev_startable``) — those children are covered by a sibling of the
    parent (Section 4.2, Redundancy) and building their tuples, masks and
    nodes would be pure waste.  ``actions`` rows are ``(action, mask,
    is_fresh)`` with ``is_fresh`` precomputed as ``action not in
    prev_startable``.
    """
    results: List[Tuple[Tuple[Action, ...], int]] = []
    if include_empty:
        results.append(((), 0))
    _recurse_masked(actions, results, 0, 0, [], max_swaps, 0)
    return results


def apply_action_set(
    problem: MappingProblem,
    node: SearchNode,
    action_set: Tuple[Action, ...],
    all_startable: FrozenSet[Action],
    masks: Optional[Dict[Action, int]] = None,
    parent_eff: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None,
    touched: Optional[int] = None,
    startable_pairs: Optional[List[Tuple[Action, int]]] = None,
) -> Optional[SearchNode]:
    """Start ``action_set`` at ``node.time`` and advance to the next event.

    Returns ``None`` when the set is empty and nothing is in flight (time
    could not advance) — the caller never treats that as a child.

    Args:
        problem: Problem instance.
        node: Parent node.
        action_set: Qubit-disjoint startable actions.
        all_startable: Every action startable at the parent (used to record
            ``prev_startable`` on the child for the redundancy check).
        masks: Optional precomputed ``action -> occupied-qubit bitmask``
            map covering every startable action; :func:`expand` builds it
            once per parent so the per-child redundancy bookkeeping is
            pure integer work.
        parent_eff: Optional precomputed ``node.mapping_after_swaps()``.
            When given, the child's effective mapping is seeded as
            ``parent_eff`` plus the newly started SWAPs — sound because
            concurrently tracked SWAPs are always qubit-disjoint, so the
            application order is irrelevant.  Children that start no SWAP
            share the parent's tuples outright.
        touched: Optional precomputed union of the action set's occupied
            masks (the enumeration recursion maintains it for free).
        startable_pairs: Optional ``(action, mask)`` rows for every
            startable action, in a stable order; lets the
            ``prev_startable`` bookkeeping run on a list instead of
            iterating a frozenset with per-action dict lookups.
    """
    if masks is None and (touched is None or startable_pairs is None):
        masks = {
            a: _action_mask(problem, node, a) for a in all_startable
        }
        for a in action_set:
            if a not in masks:
                masks[a] = _action_mask(problem, node, a)
    started = node.started
    time = node.time
    gate_latency = problem.gate_latency
    gate_qubits = problem.gate_qubits

    new_items: List[Tuple[int, int, int, int]] = []
    new_ptr = None
    new_swaps = None
    next_time = None
    if touched is None:
        touched_mask = 0
        for action in action_set:
            touched_mask |= masks[action]
    else:
        touched_mask = touched
    for action in action_set:
        if action[0] == "g":
            gate = action[1]
            if new_ptr is None:
                new_ptr = list(node.ptr)
            for logical in gate_qubits[gate]:
                new_ptr[logical] += 1
            started += 1
            finish = time + gate_latency[gate]
            new_items.append((finish, K_GATE, gate, 0))
        else:
            _, p, q = action
            finish = time + problem.swap_len
            new_items.append((finish, K_SWAP, p, q))
            if new_swaps is None:
                new_swaps = [(p, q)]
            else:
                new_swaps.append((p, q))
        if next_time is None or finish < next_time:
            next_time = finish
    ptr = node.ptr if new_ptr is None else tuple(new_ptr)

    parent_inflight = node.inflight
    if not new_items and not parent_inflight:
        return None

    # ``inflight`` is kept sorted by finish time, so the parent's earliest
    # event is its first item and the completed items form a prefix.
    if parent_inflight and (
        next_time is None or parent_inflight[0][0] < next_time
    ):
        next_time = parent_inflight[0][0]

    completed_swaps = None
    cut = 0
    for item in parent_inflight:
        if item[0] > next_time:
            break
        if item[1] == K_SWAP:
            if completed_swaps is None:
                completed_swaps = [(item[2], item[3])]
            else:
                completed_swaps.append((item[2], item[3]))
        cut += 1
    remaining = list(parent_inflight[cut:])
    need_sort = False
    for item in new_items:
        if item[0] > next_time:
            remaining.append(item)
            need_sort = True
        elif item[1] == K_SWAP:
            if completed_swaps is None:
                completed_swaps = [(item[2], item[3])]
            else:
                completed_swaps.append((item[2], item[3]))
    if need_sort:
        remaining.sort()

    if completed_swaps is None:
        # No SWAP finished: the mapping is untouched, share the parent's
        # tuples (and their hashes) with the child.
        pos = node.pos
        inv = node.inv
    else:
        pos_l = list(node.pos)
        inv_l = list(node.inv)
        for a, b in completed_swaps:
            l1, l2 = inv_l[a], inv_l[b]
            inv_l[a], inv_l[b] = l2, l1
            if l1 >= 0:
                pos_l[l1] = b
            if l2 >= 0:
                pos_l[l2] = a
        pos = tuple(pos_l)
        inv = tuple(inv_l)

    parent_last_swaps = node.last_swaps
    if touched_mask and parent_last_swaps:
        kept_pairs = []
        for pair in parent_last_swaps:
            if not (((1 << pair[0]) | (1 << pair[1])) & touched_mask):
                kept_pairs.append(pair)
    else:
        kept_pairs = None  # parent's set survives unchanged

    if completed_swaps is not None:
        if kept_pairs is None:
            last_swaps = parent_last_swaps | frozenset(completed_swaps)
        else:
            kept_pairs.extend(completed_swaps)
            last_swaps = frozenset(kept_pairs)
    elif kept_pairs is None:
        last_swaps = parent_last_swaps  # shared: immutable and unchanged
    else:
        last_swaps = frozenset(kept_pairs)

    if not action_set:
        prev_startable = all_startable  # nothing started, nothing touched
    elif startable_pairs is not None:
        carried = []
        for a, m in startable_pairs:
            if not (m & touched_mask) and a not in action_set:
                carried.append(a)
        prev_startable = frozenset(carried)
    else:
        carried = []
        for action in all_startable:
            if action not in action_set and not (masks[action] & touched_mask):
                carried.append(action)
        prev_startable = frozenset(carried)

    if parent_eff is None:
        eff = None
        fkey = None
    elif new_swaps is None:
        eff = parent_eff
        fkey = (parent_eff[1], ptr)
    else:
        eff_pos = list(parent_eff[0])
        eff_inv = list(parent_eff[1])
        for a, b in new_swaps:
            l1, l2 = eff_inv[a], eff_inv[b]
            eff_inv[a], eff_inv[b] = l2, l1
            if l1 >= 0:
                eff_pos[l1] = b
            if l2 >= 0:
                eff_pos[l2] = a
        eff = (tuple(eff_pos), tuple(eff_inv))
        fkey = (eff[1], ptr)

    child = SearchNode.__new__(SearchNode)
    child.time = next_time
    child.pos = pos
    child.inv = inv
    child.ptr = ptr
    child.started = started
    child.inflight = tuple(remaining)
    child.last_swaps = last_swaps
    child.prev_startable = prev_startable
    child.parent = node
    child.actions = action_set if type(action_set) is tuple else tuple(action_set)
    child.prefix_layers = -1
    child.h = 0
    child.f = 0
    child.killed = False
    child.dropped = False
    child._eff = eff
    child._fkey = fkey
    child._mkey = None
    child._profile = None
    child._frontier = None
    child._tid = -1
    return child


def redundancy_fallback(
    problem: MappingProblem,
    node: SearchNode,
    config: ExpansionConfig,
    gates: Sequence[Action],
    swaps: Sequence[Action],
) -> List[SearchNode]:
    """Children of ``node`` generated without the redundancy rule.

    For a node whose every action set was redundant against the parent's
    startable record.  In the optimal search the parent's siblings cover
    those schedules, but a bounded-queue (practical-mode) search may have
    trimmed them away, so every nonempty action set over the startable
    ``gates`` and ``swaps`` is started instead and the node is never a
    dead end.  Shared by :func:`expand` and the compiled backend.
    """
    all_startable = frozenset(gates) | frozenset(swaps)
    parent_eff = node.mapping_after_swaps()
    startable_pairs = [
        (a, _action_mask(problem, node, a))
        for a in list(gates) + list(swaps)
    ]
    masks = dict(startable_pairs)
    if config.greedy_gates:
        fallback_sets = [
            s for s in enumerate_action_sets(
                problem, node, gates, swaps, config, masks=masks
            )
            if s
        ]
    else:
        fallback_sets = [
            s for s, _m in _enumerate_masked(
                [(a, m, True) for a, m in startable_pairs],
                config.max_swaps_per_step, frozenset(),
                include_empty=False,
            )
        ]
    children: List[SearchNode] = []
    for action_set in fallback_sets:
        child = apply_action_set(
            problem, node, action_set, all_startable,
            masks=masks, parent_eff=parent_eff,
        )
        if child is not None:
            children.append(child)
    return children


def expand(
    problem: MappingProblem,
    node: SearchNode,
    config: ExpansionConfig = OPTIMAL_EXPANSION,
    counters: Optional[Dict[str, int]] = None,
) -> List[SearchNode]:
    """All non-redundant children of ``node``.

    Applies, in order: the coupling and dependency criteria (inside
    :func:`startable_actions`), the cyclic-SWAP check, the empty-set rule
    (waiting is only allowed while something is in flight), and the
    could-have-started-earlier redundancy rule against the parent's
    recorded startable set.  A node left without children by that rule
    falls back to :func:`redundancy_fallback`.

    Args:
        problem: Problem instance.
        node: Node to expand.
        config: Expansion restrictions (optimal vs. practical mode).
        counters: Optional mutable dict for cheap cross-expansion
            counters (``swaps_restricted``).
    """
    gates, swaps = startable_actions(problem, node, config, counters)
    all_startable = frozenset(gates) | frozenset(swaps)
    parent_eff = node.mapping_after_swaps()
    children: List[SearchNode] = []
    prev_startable = node.prev_startable
    has_inflight = bool(node.inflight)
    startable_pairs = [
        (a, _action_mask(problem, node, a))
        for a in list(gates) + list(swaps)
    ]

    if config.greedy_gates:
        masks = dict(startable_pairs)
        action_sets = enumerate_action_sets(
            problem, node, gates, swaps, config, masks=masks
        )
        for action_set in action_sets:
            if not action_set:
                if not has_inflight:
                    continue  # cannot let time pass with nothing running
            elif all(action in prev_startable for action in action_set):
                continue  # a parent's sibling already started these earlier
            child = apply_action_set(
                problem, node, action_set, all_startable,
                masks=masks, parent_eff=parent_eff,
            )
            if child is not None:
                children.append(child)
    else:
        # Optimal mode: enumeration fused with the redundancy rule —
        # all-previously-startable sets are never materialized at all.
        rows = [
            (a, m, a not in prev_startable) for a, m in startable_pairs
        ]
        candidates = _enumerate_masked(
            rows, config.max_swaps_per_step, prev_startable,
            include_empty=has_inflight,
        )
        for action_set, touched in candidates:
            child = apply_action_set(
                problem, node, action_set, all_startable,
                parent_eff=parent_eff, touched=touched,
                startable_pairs=startable_pairs,
            )
            if child is not None:
                children.append(child)

    if not children and all_startable:
        return redundancy_fallback(problem, node, config, gates, swaps)
    return children
