#!/usr/bin/env python3
"""CLI-session benchmark of bzinfo.

One run plays one workload as a session of ``bzinfo`` command-line
invocations.  Each invocation is a child process,
``python -m bzinfo.cli ...`` with this checkout's ``src`` first on
PYTHONPATH, so the tree under test is what runs.  Load is a closed loop
with one caller: an invocation starts only after the previous one has
ended.  Every output is checked; a failed check is counted, not fatal.

    python3 perfbench/run.py --workload large-dim --seed 1 --seconds 30 --trace 0

With ``--trace 1`` the same invocations run in this process through
``bzinfo.cli.main``, alternating untraced and traced passes, and the run
reports per-layer metrics and the tracing overhead instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import LAYER_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

TOL = 1e-9
SETUP_REPEATS = 3
MIN_PASSES = 2
CALL_TIMEOUT_S = 150.0
SWEEP_HEADER = (
    "state_id,purity,C_direct,C_closed,V_direct,V_closed,"
    "I_direct,I_closed,U_direct,U_closed,max_abs_err"
)
REPORT_PAIRS = (("C_direct", "C_closed"), ("V_direct", "V_closed"),
                ("I_direct", "I_closed"), ("U_direct", "U_closed"))


@dataclass(frozen=True)
class Sizes:
    large_dim: int
    sweeps: tuple[tuple[int, str, int], ...]  # (dim, kind, states) per sweep
    shots: int


# FULL sizes are part of the workloads' definition; TINY is for selftest.py
FULL = Sizes(large_dim=24, sweeps=((2, "mum", 20000), (8, "gsm", 5000)), shots=4_000_000)
TINY = Sizes(large_dim=3, sweeps=((2, "mum", 40), (3, "gsm", 20)), shots=2000)


@dataclass
class Result:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mib: float = 0.0


@dataclass
class Call:
    verb: str
    argv: list[str]
    check: Callable[[Result], str | None]


@dataclass
class Session:
    """Per-run state: the work directory, CLI seeds and check bookkeeping."""

    work: Path
    sizes: Sizes
    rng: random.Random
    gen_digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    peak_rss_mib: float = 0.0

    def path(self, name: str) -> str:
        return str(self.work / name)

    def seed(self) -> str:
        return str(self.rng.randrange(2**32))


# ---------------------------------------------------------------- checks


def check_ok(res: Result) -> str | None:
    if res.rc != 0:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {res.rc}: {tail[0]}"
    return None


def check_gen(session: Session, out: str):
    def check(res: Result) -> str | None:
        if (bad := check_ok(res)) is not None:
            return bad
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        first = session.gen_digests.setdefault(out, digest)
        return None if digest == first else "gen bytes differ from the first pass"
    return check


def check_verify(res: Result) -> str | None:
    if (bad := check_ok(res)) is not None:
        return bad
    try:
        passed = json.loads(res.stdout)["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"verify output does not decode: {exc}"
    return None if passed is True else "verify did not report pass"


def check_bz(res: Result) -> str | None:
    if (bad := check_ok(res)) is not None:
        return bad
    try:
        doc = json.loads(res.stdout)
        worst = float(doc["max_abs_discrepancy"])
        gaps = [abs(doc[a] - doc[b]) for a, b in REPORT_PAIRS if doc[a] is not None]
    except (ValueError, KeyError, TypeError) as exc:
        return f"bz report does not decode: {exc}"
    if doc.get("schema") != "report" or not math.isfinite(worst):
        return "bz output is not a finite report"
    if not worst < TOL or not max(gaps) < TOL:
        return f"bz discrepancy {max([worst] + gaps):.3e} >= {TOL:g}"
    return None


def check_sweep(out: str, states: int):
    def check(res: Result) -> str | None:
        if (bad := check_ok(res)) is not None:
            return bad
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            return "sweep CSV header differs"
        if len(lines) != states + 1:
            return f"sweep CSV has {len(lines) - 1} rows, expected {states}"
        try:
            worst = max(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        except (ValueError, IndexError) as exc:
            return f"sweep CSV row does not parse: {exc}"
        return None if worst < TOL else f"sweep max_abs_err {worst:.3e} >= {TOL:g}"
    return check


def check_sample(out: str, shots: int):
    def check(res: Result) -> str | None:
        if (bad := check_ok(res)) is not None:
            return bad
        try:
            doc = json.loads(res.stdout)
            estimate, std_error = float(doc["estimate"]), float(doc["std_error"])
            table = json.loads(Path(out).read_text(encoding="utf-8"))
            sums = [sum(row) for row in table["counts"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"sample output does not decode: {exc}"
        if not (math.isfinite(estimate) and math.isfinite(std_error) and std_error > 0):
            return f"sample estimate {estimate!r} +- {std_error!r} is not finite and positive"
        if table.get("shots") != shots or any(s != shots for s in sums):
            return f"count rows sum to {sums}, expected {shots}"
        return None
    return check


# ---------------------------------------------------------------- workloads


def gen_call(s: Session, family: str, dim: int, out: str) -> Call:
    return Call("gen", ["gen", family, "--dim", str(dim), "--out", out], check_gen(s, out))


def state_call(s: Session, dim: int, out: str, rank: int | None = None) -> Call:
    argv = ["state", "gen", "--dim", str(dim), "--seed", s.seed(), "--out", out]
    if rank is not None:
        argv += ["--rank", str(rank)]
    return Call("state", argv, check_ok)


def large_dim_setup(s: Session) -> list[Call]:
    return [state_call(s, s.sizes.large_dim, s.path("state.json"))]


def large_dim_pass(s: Session) -> list[Call]:
    d, state = s.sizes.large_dim, s.path("state.json")
    families = (("mum", s.path("mum.json")), ("gsm", s.path("gsm.json")))
    calls = [gen_call(s, family, d, out) for family, out in families]
    calls += [Call("verify", ["verify", "--measurement", out, "--json"], check_verify)
              for _, out in families]
    calls += [Call("bz", ["bz", "--measurement", out, "--state", state, "--json"], check_bz)
              for _, out in families]
    return calls


def many_states_setup(s: Session) -> list[Call]:
    return []


def many_states_pass(s: Session) -> list[Call]:
    calls = []
    for i, (dim, kind, states) in enumerate(s.sizes.sweeps):
        out = s.path(f"sweep{i}.csv")
        argv = ["sweep", "--dim", str(dim), "--kind", kind, "--states", str(states),
                "--seed", s.seed(), "--out", out]
        calls.append(Call("sweep", argv, check_sweep(out, states)))
    return calls


SHOT_PAIRS = (("mum", 8, None), ("mub", 7, 1))  # (family, dim, state rank)


def many_shots_setup(s: Session) -> list[Call]:
    calls = [gen_call(s, family, dim, s.path(f"{family}.json")) for family, dim, _ in SHOT_PAIRS]
    calls += [state_call(s, dim, s.path(f"state_{family}.json"), rank)
              for family, dim, rank in SHOT_PAIRS]
    return calls


def many_shots_pass(s: Session) -> list[Call]:
    calls = []
    for family, _, _ in SHOT_PAIRS:
        out = s.path(f"counts_{family}.json")
        argv = ["sample", "--measurement", s.path(f"{family}.json"),
                "--state", s.path(f"state_{family}.json"), "--shots", str(s.sizes.shots),
                "--seed", s.seed(), "--estimate", "--out", out]
        calls.append(Call("sample", argv, check_sample(out, s.sizes.shots)))
    return calls


def _states_per_pass(sizes: Sizes) -> int:
    return sum(states for _, _, states in sizes.sweeps)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Session], list[Call]]
    one_pass: Callable[[Session], list[Call]]
    # (name, unit, value from one pass's seconds per verb and the sizes)
    headline: tuple[tuple[str, str, Callable[[dict, Sizes], float]], ...]


WORKLOADS = {
    "large-dim": Workload(large_dim_setup, large_dim_pass, (
        ("gen_s", "s", lambda v, z: v["gen"]),
        ("verify_s", "s", lambda v, z: v["verify"]),
        ("bz_s", "s", lambda v, z: v["bz"]),
    )),
    "many-states": Workload(many_states_setup, many_states_pass, (
        ("sweep_states_per_s", "states/s", lambda v, z: _states_per_pass(z) / v["sweep"]),
    )),
    "many-shots": Workload(many_shots_setup, many_shots_pass, (
        ("sample_estimate_s", "s", lambda v, z: v["sample"]),
    )),
}
WARM_UP = Call("warm-up", ["--version"], check_ok)


# ---------------------------------------------------------------- runners


def child_env() -> dict[str, str]:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class ChildProcesses:
    """Runs each invocation as ``python -m bzinfo.cli`` in a child process."""

    def __init__(self, work: Path):
        self.work = work
        self.env = child_env()

    def run(self, argv: list[str]) -> Result:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "bzinfo.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=self.work, env=self.env,
            )
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own max-RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            rc=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            seconds=seconds,
            maxrss_mib=usage.ru_maxrss / 1024.0,
        )


class InProcess:
    """Runs each invocation through ``bzinfo.cli.main`` in this process."""

    def __init__(self, tracer=None):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from bzinfo import cli

        self.main = cli.main
        self.tracer = tracer
        self.traced_pass: int | None = None  # set while a traced pass runs

    def run(self, argv: list[str]) -> Result:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.traced_pass is None:
                    rc = self.main(argv)
                else:
                    rc = self.tracer.call(self.traced_pass, argv, self.main)
            except SystemExit as exc:
                rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # an escaping exception is a failed invocation, not a failed run
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - start
        return Result(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), seconds=seconds)


def run_calls(session: Session, runner, calls: list[Call]) -> list[tuple[str, float]]:
    """Run calls in order and check each; return (verb, seconds) per call."""
    timings = []
    for call in calls:
        res = runner.run(call.argv)
        session.attempted += 1
        session.peak_rss_mib = max(session.peak_rss_mib, res.maxrss_mib)
        reason = call.check(res)
        if reason is not None:
            session.failed += 1
            print(f"check failed: bzinfo {' '.join(call.argv)}: {reason}", file=sys.stderr)
        timings.append((call.verb, res.seconds))
    return timings


def per_verb(timings: list[tuple[str, float]]) -> dict[str, float]:
    """Seconds of one pass summed per verb."""
    sums: dict[str, float] = {}
    for verb, seconds in timings:
        sums[verb] = sums.get(verb, 0.0) + seconds
    return sums


def median_pass(passes: list[list[tuple[str, float]]]) -> float:
    return statistics.median(sum(t for _, t in p) for p in passes)


# ---------------------------------------------------------------- sessions


def repeat_for(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(0)``, ``step(1)``, ... while ``seconds`` have not elapsed,
    and at least MIN_PASSES times; the last call may end after ``seconds``."""
    start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def measure(session: Session, workload: Workload, runner, seconds: float) -> dict:
    """Untraced session: repeated set-up, then passes for ``seconds``."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_calls(session, runner, [WARM_UP] + workload.setup(session))
        setups.append(time.perf_counter() - start)
    passes = []
    repeat_for(seconds, lambda _: passes.append(
        run_calls(session, runner, workload.one_pass(session))))
    verbs = [per_verb(p) for p in passes]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (median_pass(passes), "s"),
        **{name: (statistics.median(fn(v, session.sizes) for v in verbs), unit)
           for name, unit, fn in workload.headline},
        "peak_rss_mib": (session.peak_rss_mib, "MiB"),
        "passes": (len(passes), "count"),
    }


def measure_traced(session: Session, workload: Workload, runner: InProcess, seconds: float,
                   trace_path: Path) -> dict:
    """In-process session: set-up traced once, then untraced and traced passes in turn."""
    tracer = runner.tracer
    tracer.install()
    try:
        runner.traced_pass = -1
        run_calls(session, runner, workload.setup(session))
    finally:
        runner.traced_pass = None
        tracer.uninstall()
    untraced, traced = [], []

    def one_pass(i: int) -> None:
        if i % 2 == 0:
            untraced.append(run_calls(session, runner, workload.one_pass(session)))
            return
        tracer.install()
        runner.traced_pass = len(traced)
        try:
            traced.append(run_calls(session, runner, workload.one_pass(session)))
        finally:
            runner.traced_pass = None
            tracer.uninstall()

    repeat_for(seconds, one_pass)
    tracer.write_csv(trace_path)
    per_pass = list(tracer.layer_metrics().values())
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), unit)
        for name, (_, _, unit) in LAYER_METRICS.items()
    }
    overhead = median_pass(traced) / median_pass(untraced)
    return metrics | {
        "trace.overhead_ratio": (overhead, "ratio"),
        "traced_passes": (len(traced), "count"),
        "untraced_passes": (len(untraced), "count"),
    }


# ---------------------------------------------------------------- provenance

PROVENANCE_PROBE = """
import json, sys
import numpy
from bzinfo import _kernels
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "backend": _kernels.BACKEND,
}))
"""


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    """Versions, machine and settings the run used; thread settings are recorded, not set."""
    probe = subprocess.run([sys.executable, "-c", PROVENANCE_PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=60, check=False)
    try:
        found = json.loads(probe.stdout)
    except ValueError:
        found = {"probe_error": probe.stderr.strip()[-200:]}
    return {
        "git_sha": git_sha(),
        **found,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- entry point


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer | None = None,
                 sizes: Sizes = FULL) -> tuple[Session, dict]:
    """Run one workload in a fresh work directory and return its session and metrics.

    With a tracer the session runs in process and reports per-layer metrics.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    session = Session(work=work, sizes=sizes, rng=random.Random(seed))
    try:
        if tracer is not None:
            trace_path = WORK_ROOT / f"trace-{name}.csv"
            metrics = measure_traced(session, WORKLOADS[name], InProcess(tracer), seconds,
                                     trace_path)
        else:
            metrics = measure(session, WORKLOADS[name], ChildProcesses(work), seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return session, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bzinfo" / "cli.py").is_file():
        print(f"error: no bzinfo sources under {SRC}", file=sys.stderr)
        return 2

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = config["per_layer" if args.trace else "end_to_end"]

    tracer = Tracer() if args.trace else None
    session, metrics = run_workload(args.workload, args.seed, args.seconds, tracer)
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    failed_frac = session.failed / session.attempted
    print(f"workload {args.workload} (trace {args.trace}): "
          f"attempted={session.attempted} failed={session.failed}")
    for name, (value, unit) in {**metrics, "failed_frac": (failed_frac, "ratio")}.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
