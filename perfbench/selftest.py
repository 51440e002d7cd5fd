#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny variants of each workload.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with
its unit in both modes, that a planted wrong reference depth is counted
as a failure, that the seed moves only the seeded workload, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def measure(build, trace: bool) -> dict:
    started = time.perf_counter()
    build()
    out = io.StringIO()
    result = run.measure(build, trace, seconds=0.0,
                         setup=[time.perf_counter() - started], out=out)
    print(out.getvalue(), end="")
    return result


def check_metrics(spec) -> None:
    for name in workloads.WORKLOADS:
        build = functools.partial(workloads.build, name, 1, tiny=True)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(build, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == declared(spec, key),
                   f"{name} trace={int(trace)} prints every {key} metric "
                   "with its declared unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={int(trace)} is correct")


def planted() -> workloads.Workload:
    """Tiny exact_paper whose first request expects one cycle too many."""
    workload = workloads.build("exact_paper", 1, tiny=True)
    first = workload.requests[0]
    wrong = dataclasses.replace(first,
                                reference_depth=first.reference_depth + 1,
                                reference_source="planted")
    return dataclasses.replace(
        workload, requests=(wrong,) + workload.requests[1:])


def check_planted_depth() -> None:
    result = measure(planted, False)
    verified = result["metrics"]["verified_frac"]["value"]
    expect(result["failed"] > 0 and verified < 1.0 and not result["correct"],
           "a planted wrong reference depth counts as a failure "
           f"(failed {result['failed']}, verified_frac {verified})")


def check_seeds() -> None:
    for name in workloads.WORKLOADS:
        a = workloads.build(name, seed=1, tiny=True)
        b = workloads.build(name, seed=2, tiny=True)
        same = [r.label for r in a.requests] == [r.label for r in b.requests]
        expect(same != a.uses_seed,
               f"{name}: seed {'changes' if a.uses_seed else 'ignored by'} "
               "the request stream")
    held_out = measure(
        functools.partial(workloads.build, "stream_corpus", 2, tiny=True),
        False,
    )
    expect(held_out["correct"], "stream_corpus runs clean on a second seed")


def check_refuses_without_sources() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           "refuses to run without the program's sources "
           f"(exit {done.returncode})")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_planted_depth()
    check_seeds()
    check_refuses_without_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
