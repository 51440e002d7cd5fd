#!/usr/bin/env python3
"""Benchmark of the TOQM reproduction: wall time to verified schedules.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_paper --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it sets
the workload up several times (in child processes, so imports count),
then repeats passes over the workload until ``--seconds`` would be
exceeded by one more pass, at least one pass.  ``--trace 1`` runs one
untraced pass and then one pass with every layer wrapped (see
``layers.py``), reports the per-layer metrics, and requires the search
counters of the two passes to be identical.

Every schedule is checked: ``validate_result`` (inside ``map_many``), the
circuit and device it was mapped for, the per-request budget and, on
``exact_paper``, the reference depth.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Metric names and units are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up samples per ``--trace 0`` run (this process plus children).
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

#: ``BENCHMARK.json`` declares every metric with its unit.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop with an error."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"error: no program sources at {SRC}; run from the root of a "
            "checkout of the repository"
        )
    sys.path.insert(0, SRC)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time, exit")
    return parser.parse_args(argv)


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: the host's speed."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def host_record(workload) -> dict:
    from repro.core.kernels import resolve_backend

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "kernel_backend": resolve_backend().name,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "calibration_s": calibration_s(),
        "workload_uses_seed": workload.uses_seed,
    }


def _same_circuit(a, b) -> bool:
    return a.num_qubits == b.num_qubits and [
        (g.name, g.qubits) for g in a
    ] == [(g.name, g.qubits) for g in b]


def check(request, record, budget_s: float, backend: str):
    """Why ``record`` fails ``request``, or ``None`` when it passes."""
    if not record.ok:
        return record.error or "mapper failed"
    result = record.result
    if not _same_circuit(result.circuit, request.circuit):
        return "schedule is for another circuit"
    if sorted(result.coupling.edges) != sorted(request.mapper.coupling.edges):
        return "schedule is for another device"
    if record.seconds > budget_s:
        return f"took {record.seconds:.2f} s, budget {budget_s} s"
    if result.stats.get("kernel_backend") != backend:
        return f"ran kernel {result.stats.get('kernel_backend')!r}"
    if request.reference_depth is not None:
        if result.depth != request.reference_depth or not result.optimal:
            return (f"depth {result.depth} (optimal={result.optimal}), "
                    f"reference {request.reference_depth} from "
                    f"{request.reference_source}")
    return None


def run_pass(workload, backend: str) -> dict:
    """Map every request once through ``map_many`` and check each result."""
    from layers import RESULT_COUNTERS
    from repro.analysis import batch

    tasks = [batch.BatchTask(r.label, r.circuit, r.mapper)
             for r in workload.requests]
    gc.collect()
    start = time.perf_counter()
    records = batch.map_many(
        tasks, max_workers=1, warm_cache=workload.warm_cache,
        max_seconds=workload.budget_s, keep_results=True, validate=True,
    )
    wall = time.perf_counter() - start
    failures = {}
    for request, record in zip(workload.requests, records):
        reason = check(request, record, workload.budget_s, backend)
        if reason is not None:
            failures[request.label] = reason
    return {
        "wall": wall,
        "seconds": {rec.label: rec.seconds for rec in records},
        "depth": {rec.label: rec.depth for rec in records},
        "swaps": {rec.label: rec.swaps for rec in records},
        "counters": {
            rec.label: (rec.depth, rec.swaps) + tuple(
                rec.stats.get(key) for key in RESULT_COUNTERS
            )
            for rec in records
        },
        "batch_overhead": wall - sum(rec.seconds for rec in records),
        "failures": failures,
    }


def setup_samples(args, first: float) -> list:
    """Set-up times: this process's and those of fresh child processes."""
    samples = [first]
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def end_to_end(passes, setup, verified_frac: float) -> dict:
    """End-to-end metrics; a request's time is its median over passes."""
    first = passes[0]
    seconds = [
        statistics.median(p["seconds"][label] for p in passes)
        for label in first["seconds"]
    ]
    deciles = statistics.quantiles(seconds, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "request_s.p50": deciles[4],
        "request_s.p90": deciles[8],
        "depth_sum": sum(d for d in first["depth"].values() if d is not None),
        "swaps_sum": sum(s for s in first["swaps"].values() if s is not None),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_frac": verified_frac,
    }


def per_layer(untraced, traced, trace) -> dict:
    from layers import layer_metrics
    from workloads import INSTANCE_NAMES

    metrics = layer_metrics(trace)
    metrics["batch.overhead_s"] = untraced["batch_overhead"]
    for name in INSTANCE_NAMES:
        metrics[f"instance.{name}.solve_s"] = untraced["seconds"].get(name, 0.0)
        metrics[f"instance.{name}.depth"] = untraced["depth"].get(name) or 0
        metrics[f"instance.{name}.swaps"] = untraced["swaps"].get(name) or 0
    metrics["trace.overhead_frac"] = traced["wall"] / untraced["wall"] - 1.0
    return metrics


def declared_units() -> dict:
    """Metric name -> unit, end-to-end and per-layer, from BENCHMARK.json."""
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def measure(build, trace: bool, seconds: float, setup=None,
            out=sys.stdout) -> dict:
    """Run the workload ``build()`` returns; return the result object.

    Every pass maps freshly built inputs, so caches the program keeps on
    its input objects (distance tables, automorphisms) start cold in
    each pass, as they do for a user's first request.
    """
    from repro.core.kernels import resolve_backend

    backend = resolve_backend().name
    units = declared_units()
    workload = build()
    host = host_record(workload)
    print("host " + json.dumps(host, sort_keys=True), file=out)
    passes = []
    if not trace:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(build(), backend))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
    else:
        from layers import LayerTrace, instrument

        passes.append(run_pass(build(), backend))
        layer_trace = LayerTrace()
        traced_inputs = build()
        with instrument(layer_trace):
            passes.append(run_pass(traced_inputs, backend))
        _write_spans(workload, layer_trace)
    problems = []
    for index, done in enumerate(passes, start=1):
        print(f"pass {index} wall {done['wall']!r} requests "
              + json.dumps(done["seconds"]), file=out)
        if done["counters"] != passes[0]["counters"]:
            problems.append(f"pass {index}: search counters differ from "
                            "pass 1")
        for label, reason in done["failures"].items():
            problems.append(f"pass {index} {label}: {reason}")
    attempted = len(workload.requests) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if trace:
        metrics = per_layer(passes[0], passes[1], layer_trace)
    else:
        metrics = end_to_end(passes, setup or [0.0],
                             (attempted - failed) / attempted)
    for line in problems:
        print("FAIL " + line, file=out)
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.4f}", file=out)
    for name, value in metrics.items():
        print(f"  {name:<34} {value!r:>24} {units[name]}", file=out)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def _write_spans(workload, layer_trace) -> None:
    """Write the coarse spans of a traced pass under ``perfbench/out``."""
    directory = os.path.join(HERE, "out")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{workload.name}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for request, name, start, end, depth in layer_trace.spans:
            handle.write(json.dumps({
                "request": request, "name": name, "start": start,
                "end": end, "depth": depth,
            }) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    load_program()
    import workloads

    build = functools.partial(workloads.build, args.workload, args.seed)
    build()
    from repro.core.kernels import resolve_backend

    resolve_backend()
    setup = time.perf_counter() - _STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    samples = None if args.trace else setup_samples(args, setup)
    result = measure(build, bool(args.trace), args.seconds, samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
