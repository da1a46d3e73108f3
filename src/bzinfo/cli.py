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
All randomness is traced to --seed.

Loading a measurement file rejects any verification deviation >= 1e-10
with exit 2, so ``verify --tol`` looser than 1e-10 has no effect: verify
exits 1 only for a degenerate family or a --tol below 1e-10.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, NumericalError, SchemaError, VerificationError
from .invariants import DirectEvaluator, bz_report
from .measurements import build_gsm, build_mub, build_mum, sic2_fixture, verify
from .sampler import estimate_bz_info, sample_outcomes
from .serialize import encode, load, save
from .states import RNG_ALGORITHM, check_seed, density_stream, random_density
from . import __version__

SWEEP_HEADER = (
    "state_id,purity,C_direct,C_closed,V_direct,V_closed,"
    "I_direct,I_closed,U_direct,U_closed,max_abs_err"
)


def _parse_t(value: str):
    if value == "auto":
        return "auto"
    try:
        return float(value)
    except ValueError:
        raise DomainError(f"--t must be a number or 'auto', got {value!r}") from None


def _emit(entity, out: str | None, meta: dict | None = None) -> None:
    if out:
        save(entity, out, meta=meta)
    else:
        print(encode(entity, meta=meta).decode("utf-8"))


def _build_family(kind: str, dim: int | None, t: str | None):
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
    family = load(args.measurement)
    report = verify(family, args.tol)
    if args.json:
        print(
            json.dumps(
                {
                    "kind": report.kind,
                    "tol": report.tol,
                    "passed": report.passed,
                    "degenerate": report.degenerate,
                    "deviations": report.deviations,
                }
            )
        )
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_bz(args) -> int:
    family = load(args.measurement)
    state = load(args.state)
    report = bz_report(family, state)
    payload = encode(report).decode("utf-8")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    if args.json or not args.out:
        if args.json:
            print(payload)
        else:
            print(f"{report.kind} family, d={report.dim}, purity={report.purity!r}")
            for name in ("C", "V", "I", "U"):
                direct = getattr(report, f"{name}_direct")
                closed = getattr(report, f"{name}_closed")
                print(f"  {name}: direct={direct!r} closed={closed!r}")
            print(f"  max |direct - closed| = {report.max_abs_discrepancy:.3e}")
    return 0


def _cmd_sample(args) -> int:
    family = load(args.measurement)
    state = load(args.state)
    if args.estimate:
        # first: the bootstrap stream makes its seed bound the tighter one
        estimate, std_error = estimate_bz_info(family, state, args.shots, args.seed)
        print(json.dumps({"estimate": estimate, "std_error": std_error}))
    table = sample_outcomes(family, state, args.shots, args.seed)
    if not args.estimate:
        _emit(table, args.out)
    elif args.out:
        save(table, args.out)
    return 0


def _cmd_sweep(args) -> int:
    check_seed(args.seed, args.states)
    if args.measurement:
        family = load(args.measurement)
    else:
        family = _build_family(args.kind, args.dim, args.t)
    if family.dim != args.dim:
        raise DomainError(f"family dimension {family.dim} does not match --dim {args.dim}")

    evaluator = DirectEvaluator(family)
    rank = args.rank if args.rank is not None else args.dim
    lines = [SWEEP_HEADER]
    states = density_stream(args.dim, rank, args.seed, args.states)
    for i, state in enumerate(states):
        r = evaluator.report(state)
        lines.append(
            ",".join(
                map(
                    repr,
                    (
                        i,
                        r.purity,
                        r.C_direct,
                        r.C_closed,
                        r.V_direct,
                        r.V_closed,
                        r.I_direct,
                        r.I_closed,
                        r.U_direct,
                        r.U_closed,
                        r.max_abs_discrepancy,
                    ),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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
    ver.add_argument("--tol", type=float, default=1e-10)
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
    sweep.add_argument("--kind", choices=("mum", "gsm", "mub", "sic2"), default="mum")
    sweep.add_argument("--t", default="auto")
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
