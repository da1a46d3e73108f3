#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 perfbench/selftest.py

It checks that:

* every workload runs clean at tiny sizes, as child processes and traced
  in process, and reports every metric BENCHMARK.json lists;
* the traced counts per invocation match the library's call structure:
  ``measurements.verify`` runs 0 times for gen, 2 for verify, 2 for bz,
  3 for sample --estimate and 1 for sweep; ``sampler.sample_outcomes``
  runs twice per sample --estimate; ``invariants.report`` runs --states
  times per sweep;
* a measurement file with one effect entry perturbed by 1e-6 is counted
  as a failed check by both runners, and the run carries on.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

import run
from tracing import Tracer

VERIFY_CALLS = {"gen": 0, "state": 0, "verify": 2, "bz": 2, "sample": 3, "sweep": 1}
SAMPLE_CALLS = {"sample": 2}


def _expected_reports(argv: tuple[str, ...]) -> int:
    if argv[0] == "sweep":
        return int(argv[argv.index("--states") + 1])
    return 1 if argv[0] == "bz" else 0


def check_counts(tracer: Tracer) -> list[str]:
    problems = []
    for argv, counts in tracer.invocation_counts():
        expected = {
            "measurements.verify": VERIFY_CALLS[argv[0]],
            "sampler.sample_outcomes": SAMPLE_CALLS.get(argv[0], 0),
            "invariants.report": _expected_reports(argv),
        }
        for span, want in expected.items():
            got = counts.get(span, 0)
            if got != want:
                problems.append(f"bzinfo {' '.join(argv)}: {span} ran {got} times, expected {want}")
    return problems


def check_workloads(config: dict) -> list[str]:
    problems = []
    for name in run.WORKLOADS:
        for tracer in (None, Tracer()):
            label = f"{name} ({'traced' if tracer else 'child processes'})"
            session, metrics = run.run_workload(name, seed=7, seconds=0, tracer=tracer,
                                                sizes=run.TINY)
            if session.failed or not session.attempted:
                problems.append(f"{label}: {session.failed} of {session.attempted} checks failed")
            listed = config["per_layer" if tracer else "end_to_end"]
            missing = [m["name"] for m in listed if m["name"] not in metrics]
            if missing:
                problems.append(f"{label}: metrics not reported: {missing}")
            if tracer is not None:
                problems += check_counts(tracer)
    return problems


def check_perturbed_measurement() -> list[str]:
    problems = []
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = run.Session(work=work, sizes=run.TINY, rng=random.Random(0))
        children = run.ChildProcesses(work)
        path = session.path("mum.json")
        run.run_calls(session, children, [run.gen_call(session, "mum", 3, path)])
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["effects"][0][0][0][0][0] += 1e-6  # Re <0|P|0> of the first effect
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for runner in (children, run.InProcess()):
            before = session.failed
            call = run.Call("verify", ["verify", "--measurement", path, "--json"],
                            run.check_verify)
            run.run_calls(session, runner, [call])
            if session.failed != before + 1:
                problems.append(f"perturbed file not counted as failed by {type(runner).__name__}")
        if session.attempted != 3:
            problems.append(f"expected 3 attempted invocations, got {session.attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main() -> int:
    if not (run.SRC / "bzinfo" / "cli.py").is_file():
        print(f"error: no bzinfo sources under {run.SRC}", file=sys.stderr)
        return 2
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_workloads(config) + check_perturbed_measurement()
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
