"""Portfolio mapping: race exact, heuristic and SABRE lanes to one depth.

The exact A* search (Section 5) proves optimality but pays for the proof;
the Section 6.2 heuristic and the SABRE baseline return *some* schedule
almost immediately.  :class:`PortfolioMapper` runs all three as lanes of
one race wired through the :class:`~repro.analysis.batch.SharedBound`
incumbent protocol the mode-2 fan-out already speaks:

* the **heuristic** and **sabre** lanes run in daemon threads; each
  validates its finished schedule (:func:`repro.verify.checker.
  validate_result`) and publishes the depth into the shared bound, which
  the exact lane polls every ``_SHARED_BOUND_POLL`` expansions — a lane
  result *immediately* tightens the exact search's f-prune;
* the **exact** lane runs :class:`~repro.core.astar.OptimalMapper` in
  the calling thread with the portfolio's anytime ``deadline``
  installed.

The racy composition stays *anytime and exact*: at any deadline the best
validated lane schedule is returned (``optimal=False``), and when the
exact lane closes the portfolio returns a proven optimum.  The subtle
case is the exact lane draining its queue against a *foreign* bound — it
raises ``budget_reason="exhausted"`` because it cannot vouch for depths
it did not derive (see :mod:`repro.core.astar`).  The portfolio can: the
drained queue proves no schedule beats the final shared bound, every
shared offer came from a validated schedule the portfolio holds, so the
best held result at ``depth == shared.peek()`` *is* optimal and is
promoted to ``optimal=True``.

Stats keep the normalized schema with the exact lane's search counters
top-level (so ``repro diagnose`` and the benchmark harness read portfolio
runs like exact runs) plus per-lane depth/seconds breakdowns,
``lanes_finished`` and ``winner_lane``.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.sabre import SabreMapper
from ..circuit.circuit import Circuit
from ..core.astar import OptimalMapper, SearchBudgetExceeded
from ..core.heuristic_mapper import HeuristicMapper
from ..core.result import MappingResult
from ..obs.events import SearchProgressEvent
from ..obs.schema import (
    MAPPER_PORTFOLIO,
    STAT_BUDGET_REASON,
    STAT_LANES_FINISHED,
    STAT_WINNER_LANE,
    base_stats,
)
from ..obs.telemetry import Telemetry, resolve
from ..verify.checker import validate_result
from .batch import SharedBound

#: Lane names in winner-preference order: at equal depth the exact lane's
#: schedule wins (it may carry a proof), then the paper's own heuristic,
#: then the baseline.
LANE_EXACT = "exact"
LANE_HEURISTIC = "heuristic"
LANE_SABRE = "sabre"
LANE_ORDER = (LANE_EXACT, LANE_HEURISTIC, LANE_SABRE)

#: Stats of the exact lane hoisted to the top level of the portfolio
#: stats dict, so diagnose/bench tooling reads a portfolio run exactly
#: like an exact run.  ``seconds`` stays the portfolio's own wall clock.
_EXACT_HOISTED_KEYS = (
    "nodes_expanded",
    "nodes_generated",
    "filtered_equivalent",
    "filtered_dominated",
    "killed",
    "redundant",
    "distinct_states",
    "memo_hits",
    "memo_misses",
    "pruned_by_bound",
    "root_candidates_restricted",
    "closed_dominated",
    "incumbent_updates",
    "incumbent_depth",
    "swaps_restricted",
    "symmetry_pruned",
    "mode2_roots",
    "kernel_backend",
    "budget_reason",
)


class _Lane:
    """One portfolio lane: a mapper run plus its validated outcome."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.result: Optional[MappingResult] = None
        self.error: Optional[str] = None
        self.seconds: float = 0.0

    def run(self, mapper, circuit, initial_mapping, shared) -> None:
        """Map, validate, publish.  Exceptions become lane errors."""
        start = time.perf_counter()
        try:
            if initial_mapping is not None:
                result = mapper.map(circuit, initial_mapping=initial_mapping)
            else:
                result = mapper.map(circuit)
            validate_result(result)
        except Exception as exc:  # noqa: BLE001 - containment per lane
            self.seconds = time.perf_counter() - start
            self.error = f"{type(exc).__name__}: {exc}"
            return
        self.seconds = time.perf_counter() - start
        self.result = result
        shared.offer(result.depth)


class PortfolioMapper:
    """Race exact / heuristic / SABRE lanes through a shared incumbent.

    Args:
        coupling: Target architecture.
        latency: Latency model (``None`` → uniform).
        lanes: Lane names to run, a subset of ``("exact", "heuristic",
            "sabre")``.  Order is irrelevant; winner preference is fixed.
        deadline: Optional anytime wall-clock budget in seconds for the
            whole portfolio.  The exact lane receives whatever remains of
            it when it starts; at expiry the best validated lane schedule
            is returned with ``optimal=False``.
        max_nodes: Optional exact-lane node budget (raises on trip, as in
            :class:`~repro.core.astar.OptimalMapper`, unless another lane
            already holds a schedule to fall back on).
        max_seconds: Optional exact-lane wall-clock budget, same fallback.
        search_initial_mapping: Mode 2 for the exact lane when no initial
            mapping is given (the portfolio default — lanes that place
            their own qubits make little sense in mode 1).
        seed_incumbent: Compute one heuristic seed schedule up front,
            publish its depth, and hold it as a fallback result.  The
            exact lane's own seeding is disabled in favour of this held
            seed so that *every* depth in the shared bound corresponds to
            a schedule the portfolio can actually return (the optimality
            promotion below depends on that).
        sabre_seed / sabre_passes: SABRE lane knobs.
        kernel: Kernel backend name for the search lanes.
        telemetry: Optional observability context; lane completions are
            published as ``phase="lane"`` progress events.
    """

    mapper_name = MAPPER_PORTFOLIO

    def __init__(
        self,
        coupling,
        latency=None,
        lanes: Sequence[str] = LANE_ORDER,
        deadline: Optional[float] = None,
        max_nodes: Optional[int] = None,
        max_seconds: Optional[float] = None,
        search_initial_mapping: bool = True,
        seed_incumbent: bool = True,
        sabre_seed: int = 0,
        sabre_passes: int = 3,
        kernel: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        unknown = [lane for lane in lanes if lane not in LANE_ORDER]
        if unknown:
            raise ValueError(
                f"unknown portfolio lane(s) {unknown}; "
                f"choose from {list(LANE_ORDER)}"
            )
        if not lanes:
            raise ValueError("portfolio needs at least one lane")
        self.coupling = coupling
        self.latency = latency
        self.lanes = tuple(dict.fromkeys(lanes))  # dedup, keep order
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.search_initial_mapping = search_initial_mapping
        self.seed_incumbent = seed_incumbent
        self.sabre_seed = sabre_seed
        self.sabre_passes = sabre_passes
        self.kernel = kernel
        self.telemetry = telemetry
        #: Optional warm-cache context (installed by the batch runner);
        #: forwarded to the exact and heuristic lanes, which share its
        #: problems (the heuristic lane also reuses finished results).
        self.arch_context = None

    # ------------------------------------------------------------------
    def _remaining(self, start: float) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(0.001, self.deadline - (time.perf_counter() - start))

    def _exact_mapper(self, start: float) -> OptimalMapper:
        mapper = OptimalMapper(
            self.coupling,
            self.latency,
            search_initial_mapping=self.search_initial_mapping,
            max_nodes=self.max_nodes,
            max_seconds=self.max_seconds,
            deadline=self._remaining(start),
            # The portfolio holds (and shares) its own seed; the lane's
            # private seed would publish depths with no held schedule
            # behind them, breaking the exhaustion promotion.
            seed_incumbent=False,
            # Mode-2 fan-out builds a private SharedBound, which would cut
            # the lane off from the portfolio's; keep the lane serial.
            mode2_workers=None,
            kernel=self.kernel,
            telemetry=self.telemetry,
        )
        mapper.arch_context = self.arch_context
        return mapper

    def _heuristic_mapper(self) -> HeuristicMapper:
        mapper = HeuristicMapper(
            self.coupling, self.latency, kernel=self.kernel
        )
        mapper.arch_context = self.arch_context
        return mapper

    def _sabre_mapper(self, shared: SharedBound) -> SabreMapper:
        return SabreMapper(
            self.coupling,
            self.latency,
            seed=self.sabre_seed,
            passes=self.sabre_passes,
            shared_incumbent=shared,
        )

    # ------------------------------------------------------------------
    def map(
        self,
        circuit: Circuit,
        initial_mapping: Optional[Sequence[int]] = None,
    ) -> MappingResult:
        """Race the configured lanes; return the best validated schedule.

        Returns a :class:`MappingResult` with ``optimal=True`` when the
        exact lane closed (directly or by the exhaustion promotion) and
        ``optimal=False`` for deadline/budget-limited runs.  Raises
        :class:`SearchBudgetExceeded` only when *no* lane produced a
        validated schedule inside the budget.
        """
        start = time.perf_counter()
        tele = resolve(self.telemetry)
        shared = SharedBound()
        lanes: Dict[str, _Lane] = {name: _Lane(name) for name in self.lanes}
        threads: List[Tuple[str, threading.Thread]] = []

        # --- held seed: the depth floor every lane prunes against -------
        seed_lane: Optional[_Lane] = None
        if self.seed_incumbent and LANE_EXACT in lanes:
            from ..core.heuristic_mapper import incumbent_result

            seed_lane = _Lane("seed")
            seed_start = time.perf_counter()
            seed = incumbent_result(
                self.coupling, self.latency, circuit,
                initial_mapping=initial_mapping,
            )
            seed_lane.seconds = time.perf_counter() - seed_start
            if seed is not None:
                try:
                    validate_result(seed)
                except Exception as exc:  # noqa: BLE001
                    seed_lane.error = f"{type(exc).__name__}: {exc}"
                else:
                    seed_lane.result = seed
                    shared.offer(seed.depth)

        # --- side lanes: threads, daemonic so a deadline never hangs ----
        for name in self.lanes:
            if name == LANE_EXACT:
                continue
            if name == LANE_HEURISTIC:
                mapper = self._heuristic_mapper()
            else:
                mapper = self._sabre_mapper(shared)
            thread = threading.Thread(
                target=lanes[name].run,
                args=(mapper, circuit, initial_mapping, shared),
                name=f"portfolio-{name}",
                daemon=True,
            )
            threads.append((name, thread))
            thread.start()

        # --- exact lane: calling thread, shared bound installed ---------
        exact_reason: Optional[str] = None
        exact_stats: Dict = {}
        if LANE_EXACT in lanes:
            lane = lanes[LANE_EXACT]
            mapper = self._exact_mapper(start)
            mapper.shared_incumbent = shared
            lane_start = time.perf_counter()
            try:
                result = (
                    mapper.map(circuit, initial_mapping=initial_mapping)
                    if initial_mapping is not None
                    else mapper.map(circuit)
                )
                validate_result(result)
                lane.result = result
                exact_stats = dict(result.stats)
                shared.offer(result.depth)
            except SearchBudgetExceeded as exc:
                exact_stats = dict(exc.partial_stats)
                exact_reason = exact_stats.get(STAT_BUDGET_REASON, "unknown")
                lane.error = f"budget exceeded: {exc}"
            except Exception as exc:  # noqa: BLE001 - containment per lane
                lane.error = f"{type(exc).__name__}: {exc}"
            lane.seconds = time.perf_counter() - lane_start

        # --- join side lanes (bounded by what is left of the deadline) --
        for name, thread in threads:
            remaining = self._remaining(start)
            thread.join(timeout=remaining)
            if thread.is_alive():
                lanes[name].error = "deadline expired before lane finished"

        return self._conclude(
            circuit, start, tele, shared, lanes, seed_lane,
            exact_stats, exact_reason, initial_mapping,
        )

    # ------------------------------------------------------------------
    def _conclude(
        self,
        circuit: Circuit,
        start: float,
        tele: Telemetry,
        shared: SharedBound,
        lanes: Dict[str, _Lane],
        seed_lane: Optional[_Lane],
        exact_stats: Dict,
        exact_reason: Optional[str],
        initial_mapping: Optional[Sequence[int]],
    ) -> MappingResult:
        """Pick the winner, promote optimality, assemble portfolio stats."""
        exact_lane = lanes.get(LANE_EXACT)
        exact_closed = (
            exact_lane is not None
            and exact_lane.result is not None
            and exact_lane.result.optimal
        )

        candidates: List[Tuple[str, MappingResult]] = []
        for name in LANE_ORDER:
            lane = lanes.get(name)
            if lane is not None and lane.result is not None:
                candidates.append((name, lane.result))
        if seed_lane is not None and seed_lane.result is not None:
            candidates.append((seed_lane.name, seed_lane.result))
        if not candidates:
            raise SearchBudgetExceeded(
                "no portfolio lane produced a validated schedule "
                f"(lanes: {', '.join(f'{l.name}: {l.error}' for l in lanes.values())})",
                partial_stats=self._stats(
                    start, lanes, seed_lane, exact_stats,
                    winner=None, reason=exact_reason or "no_lane_finished",
                ),
            )

        # LANE_ORDER iteration makes min() prefer exact > heuristic >
        # sabre (> seed) at equal depth.
        winner_name, winner = min(candidates, key=lambda item: item[1].depth)

        # Exhaustion promotion: the exact lane drained its queue against
        # the shared bound, proving nothing beats shared.peek(); every
        # offer came from a validated schedule held above, so the best
        # held schedule at exactly that depth is optimal.  Sound only
        # when the exact lane's space covers the side lanes': mode 2
        # (superset of any placement) or a pinned shared initial mapping.
        optimal = exact_closed and winner_name == LANE_EXACT
        if (
            not optimal
            and exact_reason == "exhausted"
            and winner.depth == shared.peek()
            and (initial_mapping is not None or self.search_initial_mapping)
        ):
            optimal = True

        stats = self._stats(
            start, lanes, seed_lane, exact_stats,
            winner=winner_name,
            reason=None if optimal else exact_reason,
        )
        if tele.enabled:
            for lane in list(lanes.values()) + (
                [seed_lane] if seed_lane is not None else []
            ):
                tele.publish_progress(SearchProgressEvent(
                    mapper=self.mapper_name,
                    phase="lane",
                    nodes_expanded=int(stats.get("nodes_expanded", 0) or 0),
                    nodes_generated=int(stats.get("nodes_generated", 0) or 0),
                    heap_size=0,
                    best_f=lane.result.depth if lane.result is not None else -1,
                    elapsed_seconds=lane.seconds,
                    extra={
                        "lane": lane.name,
                        "finished": lane.result is not None,
                        "winner": lane.name == winner_name,
                    },
                ))
        return dataclasses.replace(winner, optimal=optimal, stats=stats)

    # ------------------------------------------------------------------
    def _stats(
        self,
        start: float,
        lanes: Dict[str, _Lane],
        seed_lane: Optional[_Lane],
        exact_stats: Dict,
        winner: Optional[str],
        reason: Optional[str],
    ) -> Dict:
        hoisted = {
            key: exact_stats[key]
            for key in _EXACT_HOISTED_KEYS
            if key in exact_stats
        }
        if reason is not None:
            hoisted[STAT_BUDGET_REASON] = reason
        elif STAT_BUDGET_REASON in hoisted:
            # The exact lane's own budget tag is superseded by the
            # portfolio's conclusion (e.g. exhaustion promoted to proof).
            del hoisted[STAT_BUDGET_REASON]
        all_lanes = list(lanes.values()) + (
            [seed_lane] if seed_lane is not None else []
        )
        lane_depths = {
            lane.name: lane.result.depth
            for lane in all_lanes if lane.result is not None
        }
        lane_seconds = {
            lane.name: round(lane.seconds, 6) for lane in all_lanes
        }
        lane_errors = {
            lane.name: lane.error
            for lane in all_lanes if lane.error is not None
        }
        extra: Dict = {
            STAT_LANES_FINISHED: len(lane_depths),
            STAT_WINNER_LANE: winner,
            "lane_depths": lane_depths,
            "lane_seconds": lane_seconds,
        }
        if lane_errors:
            extra["lane_errors"] = lane_errors
        run_id = resolve(self.telemetry).run_id
        if run_id is not None:
            # Correlation ID from the run ledger: the final stats join
            # back to the ledger entry even when copied out of context.
            extra["run_id"] = run_id
        return base_stats(
            self.mapper_name,
            seconds=time.perf_counter() - start,
            **hoisted,
            **extra,
        )
