"""Command-line front end.

Subcommands, one verb per capability:

    gen mum|gsm|mub|sic2   build a measurement family
    state gen              generate a seeded random density matrix
    verify                 check a measurement file against its conditions
    bz                     direct vs closed-form report for a family + state
    sample                 finite-shot simulation of a family on a state
    sweep                  reports over a seeded state ensemble, as CSV

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical failure (a numerical routine missed its accuracy contract).
A file of another schema than its argument names (a state file as
--measurement, a counts file as --state) exits 2, as does a ``verify
--tol`` that is not a finite positive number.
All randomness is traced to --seed, any integer in [0, 2^64 - 1]: each
seeded command reads one Philox(seed) stream in order.  Sweep state i is
the i-th state of that stream, so state 0 is that of ``state gen --seed
<seed>``.

Loading a measurement file checks only its format (exit 2 if bad).  Each
verb verifies the family it uses once: ``verify`` at --tol, which alone
decides its exit 0 or 1, and ``bz``, ``sample`` and ``sweep`` at 1e-10
(``measurements.DEFAULT_TOL``), exiting 1 with ``family failed
verification at 1e-10: ...`` and writing no --out file.

Every document and CSV reaches its --out file or stdout through one
binary writer, opened only once the arguments are checked.  ``sweep``
writes its header and then one block of rows per batch of states, each
batch's reports made at once by ``DirectEvaluator.report_many``, so its
memory does not grow with --states.  A batch that fails is evaluated
again one state at a time, so a failure partway still leaves the rows of
every state before the failing one, and exits as ``bz`` on that state
would.  ``sweep --t`` applies to a built mum or gsm family only
(unset means auto), and ``sweep --kind`` to a built family only (unset
means mum); either, given for any other, exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .errors import DomainError, NumericalError, SchemaError, VerificationError
from .invariants import BzReport, DirectEvaluator
from .measurements import DEFAULT_TOL, Family, build_gsm, build_mub, build_mum, sic2_fixture, verify
from .sampler import estimate_bz_info, sample_outcomes
from .serialize import dump, encode, load
from .states import RNG_ALGORITHM, DensityMatrix, check_seed, density_batches, random_density
from . import __version__

SWEEP_HEADER = (
    "state_id,purity,C_direct,C_closed,V_direct,V_closed,"
    "I_direct,I_closed,U_direct,U_closed,max_abs_err"
)


def _parse_t(value: str | None):
    if value is None or value == "auto":
        return "auto"
    try:
        return float(value)
    except ValueError:
        raise DomainError(f"--t must be a number or 'auto', got {value!r}") from None


@contextlib.contextmanager
def _output(out: str | None):
    """One binary ``write``: to the file ``out``, else to stdout's bytes, flushed first."""
    if out:
        with open(out, "wb") as fh:
            yield fh.write
        return
    stdout = getattr(sys.stdout, "buffer", None)
    if stdout is None:  # a text stream with no bytes below it
        yield lambda block: sys.stdout.write(block.decode("ascii"))
    else:
        sys.stdout.flush()
        yield stdout.write


def _emit(entity, out: str | None, meta: dict | None = None) -> None:
    with _output(out) as write:
        dump(entity, write, meta)


def _load(path: str, schema: str):
    """The entity in the file ``path``; a SchemaError unless it is a measurement or state as named."""
    entity = load(path)
    if not isinstance(entity, Family if schema == "measurement" else DensityMatrix):
        raise SchemaError(f"{path} holds no {schema}")
    return entity


def _build_family(kind: str, dim: int | None, t: str | None):
    if t is not None and kind not in ("mum", "gsm"):
        raise DomainError(f"--t applies to a built mum or gsm family, not to {kind}")
    # builders are looked up at call time, so rebinding them (as a tracer does) takes effect
    if kind == "mum":
        return build_mum(dim, _parse_t(t))
    if kind == "gsm":
        return build_gsm(dim, _parse_t(t))
    if kind == "mub":
        return build_mub(dim)
    return sic2_fixture()


def _cmd_gen(args) -> int:
    _emit(_build_family(args.family, getattr(args, "dim", None), getattr(args, "t", None)), args.out)
    return 0


def _cmd_state_gen(args) -> int:
    rank = args.rank if args.rank is not None else args.dim
    state = random_density(args.dim, rank, args.seed)
    meta = {"rng": RNG_ALGORITHM, "seed": args.seed, "rank": rank}
    _emit(state, args.out, meta=meta)
    return 0


def _cmd_verify(args) -> int:
    if not 0.0 < args.tol < float("inf"):
        raise DomainError(f"--tol must be a finite positive number, got {args.tol!r}")
    family = _load(args.measurement, "measurement")
    report = verify(family, args.tol)
    if args.json:
        print(
            json.dumps(
                {
                    "kind": report.kind,
                    "tol": report.tol,
                    "passed": report.passed,
                    "degenerate": report.degenerate,
                    # JSON has no inf or nan: a non-finite deviation is null
                    "deviations": {name: v if math.isfinite(v) else None
                                   for name, v in report.deviations.items()},
                }
            )
        )
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_bz(args) -> int:
    family = _load(args.measurement, "measurement")
    state = _load(args.state, "state")
    report = DirectEvaluator(family).report(state)
    if args.out:
        _emit(report, args.out)
    if args.json:
        print(encode(report).decode("utf-8"))
    elif not args.out:
        print(f"{report.kind} family, d={report.dim}, purity={report.purity!r}")
        for name in ("C", "V", "I", "U"):
            direct = getattr(report, f"{name}_direct")
            closed = getattr(report, f"{name}_closed")
            print(f"  {name}: direct={direct!r} closed={closed!r}")
        print(f"  max |direct - closed| = {report.max_abs_discrepancy:.3e}")
    return 0


def _cmd_sample(args) -> int:
    family = _load(args.measurement, "measurement")
    state = _load(args.state, "state")
    evaluator = DirectEvaluator(family)
    table = sample_outcomes(evaluator, state, args.shots, args.seed)
    if args.estimate:
        estimate, std_error = estimate_bz_info(evaluator, table, args.seed)
        print(json.dumps({"estimate": estimate, "std_error": std_error}))
    if args.out or not args.estimate:
        _emit(table, args.out)
    return 0


def _cmd_sweep(args) -> int:
    check_seed(args.seed)
    if args.measurement:
        if args.t is not None:
            raise DomainError("--t applies to a built mum or gsm family, not to a --measurement file")
        if args.kind is not None:
            raise DomainError("--kind applies to a built family, not to a --measurement file")
        family = _load(args.measurement, "measurement")
    else:
        family = _build_family(args.kind or "mum", args.dim, args.t)
    if family.dim != args.dim:
        raise DomainError(f"family dimension {family.dim} does not match --dim {args.dim}")

    evaluator = DirectEvaluator(family)
    rank = args.rank if args.rank is not None else args.dim
    batches = density_batches(args.dim, rank, args.seed, args.states)
    # every argument is checked by now, so a bad one writes nothing
    with _output(args.out) as write:
        write(SWEEP_HEADER.encode() + b"\n")
        start = 0
        for batch in batches:
            try:
                reports = evaluator.report_many(batch)
            except (NumericalError, DomainError):
                # one state at a time, the same bits: the rows before the
                # failing state are written, and it raises its own error
                for i in range(len(batch)):
                    write(_sweep_rows(start + i, evaluator.report_many(batch[i:i + 1])))
                raise
            write(_sweep_rows(start, reports))
            start += len(reports.purity)
    return 0


def _sweep_rows(start: int, r: BzReport) -> bytes:
    """The CSV rows of a batch's report, its states numbered from start."""
    columns = np.column_stack((r.purity, r.C_direct, r.C_closed, r.V_direct, r.V_closed,
                               r.I_direct, r.I_closed, r.U_direct, r.U_closed,
                               r.max_abs_discrepancy))
    rows = enumerate(columns.tolist(), start)
    return "".join(f"{i},{','.join(map(repr, row))}\n" for i, row in rows).encode()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bzinfo",
        description="Complementary measurement families and invariant-information reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="build a measurement family")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for family, needs_dim, has_t in (
        ("mum", True, True),
        ("gsm", True, True),
        ("mub", True, False),
        ("sic2", False, False),
    ):
        p = gen_sub.add_parser(family)
        if needs_dim:
            p.add_argument("--dim", type=int, required=True)
        if has_t:
            p.add_argument("--t", default="auto", help="sharpness parameter or 'auto'")
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=_cmd_gen)

    state = sub.add_parser("state", help="density-matrix utilities")
    state_sub = state.add_subparsers(dest="state_command", required=True)
    sg = state_sub.add_parser("gen", help="seeded Ginibre random state")
    sg.add_argument("--dim", type=int, required=True)
    sg.add_argument("--rank", type=int, default=None, help="default: full rank")
    sg.add_argument("--seed", type=int, default=0)
    sg.add_argument("--out", help="output path (default: stdout)")
    sg.set_defaults(func=_cmd_state_gen)

    ver = sub.add_parser("verify", help="verify a measurement file")
    ver.add_argument("--measurement", required=True)
    ver.add_argument("--tol", type=float, default=DEFAULT_TOL)
    ver.add_argument("--json", action="store_true", help="machine output to stdout")
    ver.set_defaults(func=_cmd_verify)

    bz = sub.add_parser("bz", help="direct vs closed-form report")
    bz.add_argument("--measurement", required=True)
    bz.add_argument("--state", required=True)
    bz.add_argument("--out", help="write the report JSON here")
    bz.add_argument("--json", action="store_true", help="machine output to stdout")
    bz.set_defaults(func=_cmd_bz)

    sample = sub.add_parser("sample", help="finite-shot simulation")
    sample.add_argument("--measurement", required=True)
    sample.add_argument("--state", required=True)
    sample.add_argument("--shots", type=int, required=True)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", help="write the count table here")
    sample.add_argument(
        "--estimate",
        action="store_true",
        help="print the invariant-information estimate with bootstrap error",
    )
    sample.set_defaults(func=_cmd_sample)

    sweep = sub.add_parser("sweep", help="reports over a seeded state ensemble")
    sweep.add_argument("--dim", type=int, required=True)
    sweep.add_argument("--states", type=int, required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--kind", choices=("mum", "gsm", "mub", "sic2"), help="default: mum")
    sweep.add_argument("--t", help="sharpness of a built mum or gsm family (default: auto)")
    sweep.add_argument("--rank", type=int, default=None)
    sweep.add_argument("--measurement", help="sweep an existing measurement file instead")
    sweep.add_argument("--out", help="CSV path (default: stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
