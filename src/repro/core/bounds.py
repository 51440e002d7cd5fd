"""Burgholzer-style root-mapping restriction for the mode-2 exact search.

:func:`root_restriction_pairs` / :func:`root_mapping_allowed` implement
candidate restriction at the root (arXiv:2112.00045): when every
dependency-free gate is two-qubit, some optimal mode-2 schedule starts
an original gate at cycle 0 (any SWAP starting at cycle 0 folds into
the free prefix), so initial mappings placing no frontier pair on an
edge need no real-schedule expansion.  The exact search applies it
whenever it is not enumerating all optima, and counts the skipped
candidates as ``root_candidates_restricted``.

The derivation below argues loss-freeness explicitly;
``tests/test_bounds.py`` cross-checks the default search against
exhaustive ``find_all_optimal`` depths (which never restrict) on small
random problems.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .problem import MappingProblem

#: Sentinel distinguishing "not computed yet" from a computed ``None``.
_UNSET = object()


def root_restriction_pairs(
    problem: MappingProblem,
) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Frontier operand pairs enabling the root-mapping restriction.

    The restriction is loss-free for *optimal depth* by a folding
    argument: take an optimal mode-2 schedule under root mapping ``m``.
    A SWAP starting at cycle 0 holds its two physical positions for the
    whole interval ``[0, swap_len)``, so nothing else touches them
    there; removing the SWAP and pre-applying it to ``m`` (one more free
    prefix layer — the mapping enumeration covers all of them) replays
    the rest of the schedule identically at the same depth.  After
    folding, cycle 0 either starts an original gate or is empty — and an
    empty cycle 0 contradicts optimality (shift everything one cycle
    down).  The gate starting at cycle 0 is dependency-free, i.e. a
    *root-frontier* gate (all operand chain positions 0).  When every
    root-frontier gate is two-qubit, that gate needs its operands on an
    edge — so candidate root mappings placing **no** frontier pair at
    distance 1 cannot begin an optimal schedule and their real-schedule
    expansion is skipped (their free prefix expansion is kept: mappings
    reachable *through* them must still be enumerated).

    Returns the frontier ``(l1, l2)`` pairs when the restriction
    applies, ``None`` when it does not (an empty circuit, or a
    single-qubit frontier gate, which could legally open the schedule
    without any adjacency).  Cached on the problem instance.
    """
    cached = getattr(problem, "_root_frontier_pairs", _UNSET)
    if cached is not _UNSET:
        return cached

    pairs = []
    result: Optional[Tuple[Tuple[int, int], ...]]
    applicable = problem.num_gates > 0
    if applicable:
        gate_l1, gate_l2 = problem.gate_l1, problem.gate_l2
        gate_p1, gate_p2 = problem.gate_p1, problem.gate_p2
        for g in range(problem.num_gates):
            if gate_p1[g] != 0:
                continue
            if gate_l2[g] < 0:
                applicable = False  # 1-qubit frontier gate: no adjacency need
                break
            if gate_p2[g] == 0:
                pairs.append((gate_l1[g], gate_l2[g]))
    result = tuple(pairs) if applicable and pairs else None
    problem._root_frontier_pairs = result
    return result


def root_mapping_allowed(
    problem: MappingProblem,
    pos: Tuple[int, ...],
    pairs: Tuple[Tuple[int, int], ...],
) -> bool:
    """True when ``pos`` puts at least one frontier pair on an edge."""
    dist_flat = problem.dist_flat
    num_physical = problem.num_physical
    for l1, l2 in pairs:
        p1, p2 = pos[l1], pos[l2]
        if p1 >= 0 and p2 >= 0 and dist_flat[p1 * num_physical + p2] == 1:
            return True
    return False
