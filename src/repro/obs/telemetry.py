"""The `Telemetry` facade: one handle bundling tracer + metrics + events.

Every mapper accepts an optional ``telemetry`` argument.  ``None`` (the
default) resolves to :data:`NULL_TELEMETRY`, whose ``enabled`` flag lets
hot loops skip all instrumentation with a single attribute read — the
no-sinks path stays near-zero overhead so tier-1 timings are unaffected.

Typical wiring::

    from repro.obs import Telemetry

    telemetry = Telemetry.to_jsonl("run.jsonl", trace=True)
    telemetry.progress.subscribe(print)
    mapper = OptimalMapper(coupling, telemetry=telemetry)
    try:
        result = mapper.map(circuit)
    finally:
        telemetry.finish()        # final metrics snapshot + sink close

The JSONL stream interleaves ``span`` records (as they finish),
``progress`` records (every ``progress_every`` expansions), ``metrics``
records (snapshots, always at least the final one), and — when the
flight recorder is on — periodic ``resource`` records plus one final
``profile`` record.

Flight recorder: ``sample_resources=True`` runs a background
:class:`~repro.obs.runtime.ResourceSampler` (RSS / CPU / GC pauses);
``profile=True`` runs a :class:`~repro.obs.profiler.SamplingProfiler`
attributing wall-clock samples to the open span stack and the kernel
backend.  Both observe *from outside* the search thread, so they
compose with ``hot_path=False`` — a telemetry whose ``enabled`` flag is
off records no spans, counters or progress from the mapper while the
recorder still captures the run (the configuration the overhead gate in
``tests/test_runtime_obs.py`` certifies at <5%).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional

from .events import ProgressPublisher, SearchProgressEvent
from .metrics import MetricsRegistry
from .profiler import DEFAULT_PROFILE_INTERVAL, SamplingProfiler
from .runtime import DEFAULT_RESOURCE_INTERVAL, ResourceSampler
from .sinks import JsonlSink, Sink
from .tracer import NULL_TRACER, Tracer

#: Default expansion cadence for progress events.
DEFAULT_PROGRESS_EVERY = 1000


class Telemetry:
    """Shared observability context for one (or several) mapping runs.

    Args:
        trace: Record spans (off by default — spans are the costly part).
        sink: Destination for span/progress/metrics records.
        progress_every: Emit a progress event every N expansions.
        max_spans: Span-recording cap forwarded to the tracer.
        search_trace: Optional
            :class:`~repro.obs.trace.TraceRecorder` — the expansion-level
            search trace with prune attribution.  Carried here (rather
            than as another mapper argument) so one handle still wires
            everything; :meth:`finish` closes it.
        sample_resources: Start a background resource sampler emitting
            ``type="resource"`` records into ``sink``.
        resource_interval: Seconds between resource samples.
        profile: Start a sampling wall-clock profiler targeting the
            constructing thread; its top-N attribution rides the final
            metrics snapshot and one ``type="profile"`` record.
        profile_interval: Seconds between profile stack samples.
        profile_collapsed: Path for the folded-stack flamegraph file
            written when the profiler stops.
        hot_path: Sets ``enabled`` — whether mappers record spans,
            ``search.*`` metrics, progress events and the search trace
            (the search loop itself is the same either way).  Keep the
            default for span-level telemetry; pass ``False`` to fly the
            flight recorder alone.
        run_id: Correlation ID stamped onto every progress event and
            metrics snapshot this handle emits.  Set by the CLI from the
            run-ledger entry (:mod:`repro.obs.ledger`) so fleet shards,
            lane events and rollups all name the request they serve.
    """

    def __init__(
        self,
        trace: bool = False,
        sink: Optional[Sink] = None,
        progress_every: int = DEFAULT_PROGRESS_EVERY,
        max_spans: Optional[int] = None,
        search_trace=None,
        sample_resources: bool = False,
        resource_interval: float = DEFAULT_RESOURCE_INTERVAL,
        profile: bool = False,
        profile_interval: float = DEFAULT_PROFILE_INTERVAL,
        profile_collapsed: Optional[str] = None,
        hot_path: bool = True,
        run_id: Optional[str] = None,
    ) -> None:
        self.enabled = hot_path
        self.run_id = run_id
        self.sink = sink
        if trace:
            kwargs = {} if max_spans is None else {"max_spans": max_spans}
            self.tracer = Tracer(sink=sink, **kwargs)
        else:
            self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry()
        self.progress = ProgressPublisher()
        self.progress_every = max(1, progress_every)
        self.search_trace = search_trace
        self.sampler: Optional[ResourceSampler] = None
        self.profiler: Optional[SamplingProfiler] = None
        if sample_resources:
            self.sampler = ResourceSampler(
                sink=sink, metrics=self.metrics, interval=resource_interval
            ).start()
        if profile:
            self.profiler = SamplingProfiler(
                interval=profile_interval,
                tracer=self.tracer if trace else None,
                sink=sink,
                metrics=self.metrics,
                collapsed_path=profile_collapsed,
            ).start()
        #: Records dropped because they arrived after :meth:`finish` —
        #: the sink is closed by then, so late emits are counted, not
        #: silently resurrecting (and truncating) the file.
        self.dropped_after_finish = 0
        self._finished = False

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "Telemetry":
        """A no-op context: ``enabled`` False, null tracer, dead metrics."""
        return cls(hot_path=False)

    @classmethod
    def to_jsonl(
        cls,
        path: str,
        trace: bool = True,
        progress_every: int = DEFAULT_PROGRESS_EVERY,
        max_spans: Optional[int] = None,
        **flight_recorder,
    ) -> "Telemetry":
        """Telemetry persisting every record to a JSONL file.

        ``**flight_recorder`` forwards the runtime options
        (``sample_resources`` / ``profile`` / intervals / ``hot_path``).
        """
        return cls(
            trace=trace,
            sink=JsonlSink(path),
            progress_every=progress_every,
            max_spans=max_spans,
            **flight_recorder,
        )

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` ran — emits are dropped from then on."""
        return self._finished

    # ------------------------------------------------------------------
    def publish_progress(self, event: SearchProgressEvent) -> None:
        """Deliver a progress event to subscribers and the sink.

        Guarded against finished telemetry: the sink is closed after
        :meth:`finish`, and an emit through a closed ``JsonlSink`` used
        to reopen-and-truncate the file — late events are counted in
        ``dropped_after_finish`` instead.
        """
        if self._finished:
            self.dropped_after_finish += 1
            return
        if self.run_id is not None:
            # Stamp the correlation ID before fan-out so subscribers and
            # the sink record agree on which run the event belongs to.
            event.extra.setdefault("run_id", self.run_id)
        self.progress.publish(event)
        if self.sink is not None:
            self.sink.emit(event.to_record())

    def emit_metrics_snapshot(self, label: str = "snapshot") -> Optional[Dict]:
        """Snapshot every instrument; emit to the sink; return the record.

        Safe to call at any point — mappers call it on normal completion
        *and* from budget-exception paths, so partial runs keep their
        counters.  Returns ``None`` (and counts the drop) once the
        telemetry is finished.
        """
        if self._finished:
            self.dropped_after_finish += 1
            return None
        record = self._snapshot_record(label)
        if self.sink is not None:
            self.sink.emit(record)
        return record

    def _snapshot_record(self, label: str) -> Dict:
        record = {
            "type": "metrics",
            "label": label,
            "metrics": self.metrics.snapshot(),
        }
        if self.run_id is not None:
            record["run_id"] = self.run_id
        if self.sampler is not None:
            record["resources"] = self.sampler.summary()
        if self.profiler is not None:
            record["profile"] = self.profiler.report()
        return record

    def finish(self, label: str = "final") -> Optional[Dict]:
        """Stop the flight recorder, emit the final metrics snapshot and
        close the sink (idempotent).

        Also flushes and closes the attached ``search_trace`` recorder,
        so ring-mode trace contents reach their file.  The final
        snapshot carries the resource summary (peak RSS, CPU, GC
        pauses) and the profiler's top-N attribution tables.
        """
        if self._finished:
            return None
        if (
            not self.enabled
            and self.sampler is None
            and self.profiler is None
        ):
            # Pure no-op context (NULL_TELEMETRY): leave it reusable.
            return None
        if self.sampler is not None:
            self.sampler.stop()
        if self.profiler is not None:
            self.profiler.stop()
        record = self._snapshot_record(label)
        if self.sink is not None:
            self.sink.emit(record)
        self._finished = True
        if self.search_trace is not None:
            self.search_trace.close()
        if self.sink is not None:
            self.sink.close()
        return record


#: Module-wide disabled instance; mappers use it when given ``telemetry=None``.
NULL_TELEMETRY = Telemetry.disabled()


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry`` or the shared disabled instance."""
    return telemetry if telemetry is not None else NULL_TELEMETRY


# ----------------------------------------------------------------------
# Fleet telemetry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetrySpec:
    """Picklable recipe for per-worker telemetry in process pools.

    Live :class:`Telemetry` handles cannot cross a process boundary
    (sinks hold file handles; samplers hold threads), so fleet runs ship
    this spec instead — the same idiom as
    :class:`~repro.obs.trace.TraceSpec`.  Each pool worker calls
    :meth:`build` once and writes its own JSONL *shard*
    (``worker-<pid>.jsonl``) under ``directory``; the coordinator merges
    shards into a fleet rollup afterwards
    (:func:`repro.obs.export.fleet_rollup`).

    Worker telemetry flies the flight recorder alone
    (``hot_path=False``): resource sampling and
    per-task ``worker_task`` records cost nothing per node expanded, so
    fleet throughput is unchanged.
    """

    directory: str
    sample_resources: bool = True
    resource_interval: float = DEFAULT_RESOURCE_INTERVAL
    profile: bool = False
    profile_interval: float = DEFAULT_PROFILE_INTERVAL
    #: Correlation ID of the coordinating run (ledger run_id).  Frozen
    #: into the spec so every worker process stamps it onto its
    #: ``worker_meta`` / ``worker_task`` records without extra plumbing.
    run_id: Optional[str] = None

    def shard_path(self, worker_id) -> str:
        return os.path.join(self.directory, f"worker-{worker_id}.jsonl")

    def build(self, worker_id) -> Telemetry:
        """Worker-side telemetry appending to this worker's shard."""
        os.makedirs(self.directory, exist_ok=True)
        return Telemetry(
            sink=JsonlSink(self.shard_path(worker_id), append=True),
            sample_resources=self.sample_resources,
            resource_interval=self.resource_interval,
            profile=self.profile,
            profile_interval=self.profile_interval,
            hot_path=False,
            run_id=self.run_id,
        )
