import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bzinfo import (
    DomainError,
    NumericalError,
    build_mum,
    encode,
    load,
    measurements,
    purity,
    sampler,
    save,
)
from bzinfo import cli, linalg, states
from bzinfo.cli import SWEEP_HEADER, build_parser, main
from bzinfo.invariants import DirectEvaluator
from bzinfo.linalg import BLOCK_BYTES
from bzinfo.states import density_batches, rng_from_seed
from conftest import degenerate_family, traced_peak


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_verify(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "gen", "mum", "--dim", "3", "--t", "auto", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--measurement", str(path))
    assert code == 0
    assert "pass" in out


def test_verify_json_output(tmp_path, capsys):
    path = tmp_path / "m.json"
    run(capsys, "gen", "gsm", "--dim", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "--measurement", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["deviations"]["completeness"] < 1e-10
    # the parameter(t) consistency is one of the deviations verify reports
    assert doc["deviations"]["parameter"] < 1e-12


def test_verify_degenerate_exits_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    save(degenerate_family("mum", 2), path)
    code, _, _ = run(capsys, "verify", "--measurement", str(path))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["gen", "mum", "--dim", "3", "--t", "0"],
    ["gen", "mum", "--dim", "3", "--t", "-0.0"],
    ["gen", "gsm", "--dim", "2", "--t", "0"],
])
def test_gen_degenerate_t_exits_two_and_writes_nothing(tmp_path, capsys, argv):
    path = tmp_path / "m.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert "gives a degenerate" in err
    assert not path.exists()


def test_bz_json_report(tmp_path, capsys):
    m = tmp_path / "m.json"
    s = tmp_path / "pure.json"
    run(capsys, "gen", "mub", "--dim", "3", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "3", "--rank", "1", "--seed", "5", "--out", str(s))
    code, out, _ = run(capsys, "bz", "--measurement", str(m), "--state", str(s), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "report"
    assert doc["max_abs_discrepancy"] < 1e-9


def test_state_gen_records_rng_metadata(tmp_path, capsys):
    path = tmp_path / "s.json"
    run(capsys, "state", "gen", "--dim", "2", "--seed", "3", "--out", str(path))
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"rng": "philox", "seed": 3, "rank": 2}


def test_sample_counts_and_estimate(tmp_path, capsys):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    run(capsys, "gen", "mub", "--dim", "2", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "2", "--seed", "1", "--out", str(s))
    code, out, _ = run(
        capsys, "sample", "--measurement", str(m), "--state", str(s), "--shots", "500", "--seed", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shots"] == 500
    assert all(sum(row) == 500 for row in doc["counts"])
    code, out, _ = run(
        capsys,
        "sample",
        "--measurement", str(m),
        "--state", str(s),
        "--shots", "500",
        "--seed", "2",
        "--estimate",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"estimate", "std_error"}


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "sweep", "--dim", "2", "--states", "100", "--seed", "7", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 101
    assert lines[0].startswith("state_id,purity,C_direct")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 11
        assert abs(float(fields[6]) - float(fields[7])) < 1e-9  # I_direct vs I_closed


def test_sweep_reproducible_bytes(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--dim", "3", "--kind", "gsm", "--states", "20", "--seed", "11", "--out", str(a))
    run(capsys, "sweep", "--dim", "3", "--kind", "gsm", "--states", "20", "--seed", "11", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_truncated_measurement_exits_two(tmp_path, capsys):
    m = tmp_path / "m.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    m.write_bytes(m.read_bytes()[:50])
    code, _, err = run(capsys, "verify", "--measurement", str(m))
    assert code == 2
    assert "malformed" in err


def tampered_family(tmp_path):
    """A mum file whose first effect has a diagonal entry moved by 1e-6: well formed, not a family."""
    doc = json.loads(encode(build_mum(2, "auto")))
    doc["effects"][0][0][0][0][0] += 1e-6
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_tol_decides_a_loaded_family(tmp_path, capsys):
    m = str(tampered_family(tmp_path))
    code, out, _ = run(capsys, "verify", "--measurement", m)
    assert code == 1
    assert "FAIL" in out
    assert run(capsys, "verify", "--measurement", m, "--tol", "1e-5")[0] == 0


@pytest.mark.parametrize("argv", [
    ["bz", "--state", "s.json"],
    ["sample", "--state", "s.json", "--shots", "10"],
    ["sweep", "--dim", "2", "--states", "3"],
])
def test_a_family_failing_verification_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "state", "gen", "--dim", "2", "--out", "s.json")
    m = str(tampered_family(tmp_path))
    code, out, err = run(capsys, *argv, "--measurement", m, "--out", "out.json")
    assert code == 1
    assert out == ""
    assert err == ("error: family failed verification at 1e-10: effect_trace, cross_overlap, "
                   "within_overlap_diag, within_overlap_offdiag, completeness\n")
    assert not (tmp_path / "out.json").exists()


def test_non_prime_mub_exits_two(capsys):
    code, _, err = run(capsys, "gen", "mub", "--dim", "6")
    assert code == 2
    assert "smallest factor 2" in err


@pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
def test_non_finite_t_exits_two(capsys, t):
    for argv in (["gen", "mum", "--dim", "3"], ["gen", "gsm", "--dim", "3"],
                 ["sweep", "--dim", "2", "--states", "2"]):
        code, out, err = run(capsys, *argv, f"--t={t}")
        assert code == 2, argv
        assert out == ""
        assert "t must be a finite nonnegative number" in err


def test_sweep_negative_states_exits_two(capsys):
    code, out, err = run(capsys, "sweep", "--dim", "2", "--states", "-5")
    assert code == 2
    assert out == ""
    assert "number of states must be >= 0, got -5" in err
    code, out, _ = run(capsys, "sweep", "--dim", "2", "--states", "0")
    assert code == 0
    assert out == SWEEP_HEADER + "\n"


@pytest.mark.parametrize("argv", [("--kind", "mub"), ("--kind", "sic2"), ("--measurement", "m.json")])
def test_sweep_t_for_a_family_without_t_exits_two(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "mum", "--dim", "2", "--out", "m.json")
    code, out, err = run(capsys, "sweep", "--dim", "2", "--states", "2", *argv, "--t", "0.1",
                         "--out", "s.csv")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --t applies to a built mum or gsm family, not to ")
    assert not (tmp_path / "s.csv").exists()
    # without --t each sweeps its own family
    assert run(capsys, "sweep", "--dim", "2", "--states", "2", *argv)[0] == 0


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_sweep_t_unset_is_auto(capsys, kind):
    argv = ["sweep", "--dim", "3", "--kind", kind, "--states", "3"]
    assert run(capsys, *argv, "--t", "auto")[1] == run(capsys, *argv)[1]
    assert run(capsys, *argv, "--t", "0.01")[1] != run(capsys, *argv)[1]


def test_sweep_traced_peak_does_not_grow_with_states(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    main(["sweep", "--dim", "2", "--states", "10", "--out", out])  # imports and caches
    peaks = {}
    for n in (2000, 8000):
        peaks[n], code = traced_peak(lambda: main(["sweep", "--dim", "2", "--states", str(n), "--out", out]))
        assert code == 0
    assert len(Path(out).read_text().splitlines()) == 8001
    # the parent, which joined every row before writing, grew by about 3.8 MiB
    assert abs(peaks[8000] - peaks[2000]) < 64 * 1024, peaks


def fail_at(monkeypatch, k, bad):
    """Make state k of a sweep the matrix ``bad``; returns the sizes of the report_many calls.

    The state is put into its batch as ``cli.density_batches`` yields it,
    so a batch that sweep evaluates again holds it too.  Calls nest, each
    putting in its own state.
    """
    density_batches = cli.density_batches

    def replacing(*args):
        start = 0
        for batch in density_batches(*args):
            if start <= k < start + len(batch):
                batch = batch.copy()
                batch[k - start] = bad
            start += len(batch)
            yield batch

    report_many = DirectEvaluator.report_many
    sizes = []

    def recording(self, batch):
        sizes.append(len(batch))
        return report_many(self, batch)

    monkeypatch.setattr(cli, "density_batches", replacing)
    monkeypatch.setattr(DirectEvaluator, "report_many", recording)
    return sizes


@pytest.mark.parametrize("k", [0, 5, 300])
def test_sweep_failing_partway_keeps_the_rows_before(tmp_path, capsys, monkeypatch, k):
    argv = ["sweep", "--dim", "2", "--states", "600"]
    clean = tmp_path / "clean.csv"
    assert main([*argv, "--out", str(clean)]) == 0
    sizes = fail_at(monkeypatch, k, np.eye(2) / 2 + 1e-3j * np.eye(2))
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 3
    assert stdout == ""
    assert err == "error: outcome probability has a non-negligible imaginary part\n"
    # d=2 states come 256 to a batch: state 300 fails in the second batch,
    # which is then evaluated again one state at a time up to state 300
    assert sizes == [256] * (k // 256 + 1) + [1] * (k % 256 + 1)
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines == clean.read_text().splitlines()[:k + 1]


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
# a state that fails each check of report_many and passes the checks before it,
# with its exit code and the start of its message; the qubit MUM of t = 0.15
# has unsharp effects (eigenvalues 0.24 and 0.76)
CHECKS = {
    "1 imaginary part": (np.eye(2) / 2 + 1e-6j * np.eye(2), 3, "outcome probability has"),
    "2 [0, 1] range": (np.diag([2.0, -1.0]).astype(complex), 3, "probability out of [0, 1]"),
    "3 POVM sum": (0.45 * np.eye(2, dtype=complex), 3, "POVM probabilities sum to"),
    # <Z> = 1.1 keeps the probabilities in [0, 1] and makes the Z effects'
    # variances negative, the purity above 1 too
    "4 variance floor": ((np.eye(2) + 1.1 * PAULI_Z) / 2, 3, "effect variance"),
    # |<X>|, |<Y>| <= 1 keep every variance positive, yet the purity is 1.31
    "5 purity domain": ((np.eye(2) + 0.9 * PAULI_X + 0.9 * PAULI_Y) / 2, 2, "purity 1.31"),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_sweep_check_in_the_middle_of_a_batch(tmp_path, capsys, monkeypatch, check):
    bad, exit_code, start = CHECKS[check]
    with pytest.raises((NumericalError, DomainError)) as info:
        DirectEvaluator(build_mum(2, 0.15)).report(bad)
    message = str(info.value)
    assert message.startswith(start)
    assert "np.float64(" not in message
    argv = ["sweep", "--dim", "2", "--t", "0.15", "--states", "10"]
    clean = tmp_path / "clean.csv"
    assert main([*argv, "--out", str(clean)]) == 0
    sizes = fail_at(monkeypatch, 5, bad)
    out = tmp_path / "s.csv"
    assert run(capsys, *argv, "--out", str(out)) == (exit_code, "", f"error: {message}\n")
    assert sizes == [10] + [1] * 6
    assert out.read_text().splitlines() == clean.read_text().splitlines()[:6]


def test_sweep_failing_in_a_later_batch_of_a_large_dimension(tmp_path, capsys, monkeypatch):
    family = build_mum(16)
    # a report reads the 272 effects' squares in 5 blocks
    assert -(-len(family.effects) // (BLOCK_BYTES // family.effects[0].nbytes)) == 5
    bad = 0.9 * np.eye(16, dtype=complex) / 16
    with pytest.raises(NumericalError) as info:
        DirectEvaluator(family).report(bad)
    assert str(info.value).startswith("POVM probabilities sum to 0.9")
    argv = ["sweep", "--dim", "16", "--states", "130"]
    clean = tmp_path / "clean.csv"
    assert main([*argv, "--out", str(clean)]) == 0
    sizes = fail_at(monkeypatch, 70, bad)
    out = tmp_path / "s.csv"
    assert run(capsys, *argv, "--out", str(out)) == (3, "", f"error: {info.value}\n")
    # d=16 states come 64 to a batch: state 70 is state 6 of the second
    assert sizes == [64, 64] + [1] * 7
    assert out.read_text().splitlines() == clean.read_text().splitlines()[:71]


def test_a_batch_raises_its_earliest_check_and_sweep_its_first_failing_state(tmp_path, capsys,
                                                                             monkeypatch):
    variance, imaginary = CHECKS["4 variance floor"][0], CHECKS["1 imaginary part"][0]
    evaluator = DirectEvaluator(build_mum(2, 0.15))
    with pytest.raises(NumericalError) as info:
        evaluator.report(variance)
    assert str(info.value).startswith("effect variance")
    # the sweep's states, state 2 failing the variance floor and state 7 the
    # imaginary part, which is checked first
    batch = np.concatenate(list(density_batches(2, 2, 0, 10)))
    batch[2], batch[7] = variance, imaginary
    with pytest.raises(NumericalError, match="^outcome probability has a non-negligible imaginary part$"):
        evaluator.report_many(batch)
    argv = ["sweep", "--dim", "2", "--t", "0.15", "--states", "10"]
    clean = tmp_path / "clean.csv"
    assert main([*argv, "--out", str(clean)]) == 0
    fail_at(monkeypatch, 2, variance)
    sizes = fail_at(monkeypatch, 7, imaginary)
    out = tmp_path / "s.csv"
    assert run(capsys, *argv, "--out", str(out)) == (3, "", f"error: {info.value}\n")
    assert sizes == [10, 1, 1, 1]
    assert out.read_text().splitlines() == clean.read_text().splitlines()[:3]


# state files that fail validation, with the message bz and sample give for each
BAD_STATES = {
    "trace": ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
              "state trace is 1.5, not 1 within 1e-12"),
    "eigenvalue": ([[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
                   "state has negative eigenvalue -5.000e-01"),
    "hermitian": ([[[0.5, 0.0], [0.25, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                  "matrix is not Hermitian (defect 2.500e-01 >= 1e-12)"),
    # finite entries whose symmetrized sum overflows
    "huge": ([[[0.5, 0.0], [1.5e308, 0.0]], [[1.5e308, 0.0], [0.5, 0.0]]],
             "matrix entries too large to symmetrize"),
    # finite entries whose trace overflows
    "huge trace": ([[[8e307 * (i == j), 0.0] for j in range(3)] for i in range(3)],
                   "state trace is inf, not 1 within 1e-12"),
}


@pytest.mark.parametrize("verb", [["bz"], ["sample", "--shots", "10"]], ids=["bz", "sample"])
@pytest.mark.parametrize("defect", sorted(BAD_STATES))
def test_a_state_file_failing_validation_exits_two_with_one_line(tmp_path, capsys, verb, defect):
    rho, message = BAD_STATES[defect]
    m, s = tmp_path / "m.json", tmp_path / "s.json"
    run(capsys, "gen", "mum", "--dim", str(len(rho)), "--out", str(m))
    s.write_text(json.dumps({"v": 1, "schema": "state", "dim": len(rho), "rho": rho}))
    code, out, err = run(capsys, *verb, "--measurement", str(m), "--state", str(s))
    assert (code, out) == (2, "")
    assert err == f"error: decoded state fails validation: {message}\n"
    assert "np.float64(" not in err


def test_a_measurement_file_too_large_to_symmetrize_exits_two(tmp_path, capsys):
    m, s = tmp_path / "m.json", tmp_path / "s.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "2", "--out", str(s))
    doc = json.loads(m.read_text())
    doc["effects"][0][0][0][1] = doc["effects"][0][0][1][0] = [1.5e308, 0.0]
    m.write_text(json.dumps(doc))
    message = "error: decoded measurement fails validation: matrix entries too large to symmetrize\n"
    for argv in (["verify"], ["bz", "--state", str(s)], ["sample", "--state", str(s), "--shots", "10"]):
        assert run(capsys, *argv, "--measurement", str(m)) == (2, "", message)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_json_writes_a_non_finite_deviation_as_null(tmp_path, capsys):
    m = tmp_path / "m.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    doc = json.loads(m.read_text())
    doc["effects"][0][0][0][1] = doc["effects"][0][0][1][0] = [1e200, 0.0]
    m.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--measurement", str(m), "--json")
    assert (code, err) == (1, "")
    report = json.loads(out, parse_constant=_refuse_constant)
    assert report["passed"] is False
    assert report["deviations"]["within_overlap_diag"] is None
    assert report["deviations"]["positivity"] == 1e200


@pytest.mark.parametrize("kind, d, rank, seed", [
    ("mum", 3, 3, 5), ("gsm", 2, 1, 9), ("mub", 5, 2, 2**64 - 1), ("sic2", 2, 2, 0), ("gsm", 8, 8, 1),
])
def test_bz_json_is_sweep_row_zero(tmp_path, capsys, kind, d, rank, seed):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    dim = [] if kind == "sic2" else ["--dim", str(d)]
    run(capsys, "gen", kind, *dim, "--out", str(m))
    state = ["--dim", str(d), "--rank", str(rank), "--seed", str(seed)]
    run(capsys, "state", "gen", *state, "--out", str(s))
    _, out, _ = run(capsys, "bz", "--measurement", str(m), "--state", str(s), "--json")
    doc = json.loads(out)
    _, csv, _ = run(capsys, "sweep", "--kind", kind, *state, "--states", "3")
    names = ("purity", "C_direct", "C_closed", "V_direct", "V_closed", "I_direct", "I_closed",
             "U_direct", "U_closed", "max_abs_discrepancy")
    assert csv.splitlines()[1].split(",") == ["0", *(repr(doc[name]) for name in names)]


def test_sweep_stdout_bytes_are_its_file_bytes(tmp_path, capsys):
    argv = ["sweep", "--dim", "3", "--kind", "gsm", "--states", "5", "--seed", "2"]
    path = tmp_path / "s.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("ascii") == path.read_bytes()
    # a text stream with no bytes below it, as a redirect to StringIO gives
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert text.getvalue().encode("ascii") == path.read_bytes()


def test_gen_huge_finite_t_exits_two(capsys):
    code, out, err = run(capsys, "gen", "mum", "--dim", "3", "--t", "1e308")
    assert code == 2
    assert out == ""
    assert err == "error: effect (b=1, n=1) has eigenvalue -inf; t exceeds the positivity bound\n"


@pytest.mark.parametrize("argv, message", [
    (["gen", "mum", "--dim", "3", "--t", "abc"], "--t must be a number or 'auto', got 'abc'"),
    (["sweep", "--dim", "4", "--states", "1", "--measurement", "m.json"],
     "family dimension 3 does not match --dim 4"),
], ids=["t not a number", "sweep dim mismatch"])
def test_a_bad_argument_exits_two(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "mum", "--dim", "3", "--out", "m.json")
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_sweep_state_zero_is_state_gen(tmp_path, capsys):
    s = tmp_path / "s.json"
    run(capsys, "state", "gen", "--dim", "3", "--seed", "5", "--out", str(s))
    rho = load(s)
    _, out, _ = run(capsys, "sweep", "--dim", "3", "--states", "2", "--seed", "5")
    assert out.splitlines()[1].startswith(f"0,{purity(rho)!r},")


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--measurement", "/nonexistent/m.json")
    assert code == 2


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "mum"])  # missing required --dim
    assert exc.value.code == 2


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "sic2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "sic" and doc["a"] == 0.25


U64_MAX = str(2**64 - 1)


@pytest.mark.parametrize("estimate", [False, True])
def test_sample_seed_overflow_names_given_seed(tmp_path, capsys, estimate):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    run(capsys, "gen", "mub", "--dim", "2", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "2", "--seed", "1", "--out", str(s))
    argv = ["sample", "--measurement", str(m), "--state", str(s), "--shots", "10"]
    # the POVMs and the bootstrap all read the one stream of the seed
    extra = ["--estimate"] if estimate else []
    code, _, err = run(capsys, *argv, "--seed", str(2**64), *extra)
    assert code == 2
    assert f"[0, {U64_MAX}], got {2**64}" in err
    code, _, _ = run(capsys, *argv, "--seed", U64_MAX, *extra)
    assert code == 0


def test_sweep_seed_overflow_names_given_seed(capsys):
    argv = ["sweep", "--dim", "2", "--states", "2"]
    code, _, err = run(capsys, *argv, "--seed", str(2**64))
    assert code == 2
    assert f"[0, {U64_MAX}], got {2**64}" in err
    code, _, _ = run(capsys, *argv, "--seed", U64_MAX)
    assert code == 0


def test_state_gen_checks_the_peak_of_drawing_before_any_draw(tmp_path, capsys, monkeypatch):
    # drawing one state of rank d holds G, conj(G) and rho, three (d, d) matrices
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", 16 * 3 * 6 * 6)
    drawn = []
    monkeypatch.setattr(states, "rng_from_seed", lambda seed: drawn.append(seed) or rng_from_seed(seed))
    out = tmp_path / "s.json"
    assert run(capsys, "state", "gen", "--dim", "6", "--seed", "3", "--out", str(out)) == (0, "", "")
    assert drawn == [3]
    code, stdout, err = run(capsys, "state", "gen", "--dim", "7", "--seed", "3", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: a state of dimension 7 needs about ")
    assert drawn == [3]


def test_numerical_error_exits_three(tmp_path, capsys, monkeypatch):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "2", "--seed", "1", "--out", str(s))

    def fail(self, traces):
        raise NumericalError("probabilities have imaginary part 1e-3")

    # report checks the probabilities it takes from its one stacked contraction here
    monkeypatch.setattr(DirectEvaluator, "_checked_probs", fail)
    code, out, err = run(capsys, "bz", "--measurement", str(m), "--state", str(s))
    assert code == 3
    assert out == ""
    assert err == "error: probabilities have imaginary part 1e-3\n"


def count_calls_per_verb(tmp_path, capsys, monkeypatch, owner, attr):
    """Calls of ``owner.attr`` per verb, with every bzinfo binding of it counted.

    The owner is a module or a class; a method is counted on its class.
    """
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bzinfo" and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, counting)

    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    path_args = ["--measurement", str(m), "--state", str(s)]
    counts = {}
    for verb, argv in (
        ("gen", ["gen", "mum", "--dim", "3", "--out", str(m)]),
        ("state", ["state", "gen", "--dim", "3", "--seed", "2", "--out", str(s)]),
        ("verify", ["verify", "--measurement", str(m)]),
        ("bz", ["bz", *path_args]),
        ("sample", ["sample", *path_args, "--shots", "100", "--estimate"]),
        ("sweep", ["sweep", "--dim", "3", "--states", "4"]),
    ):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        counts[verb] = len(calls)
    return counts


# the benchmark's self-test pins these counts too; a count may only go down, and
# the self-test follows at the next change to the benchmark
def test_verify_calls_per_verb(tmp_path, capsys, monkeypatch):
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, measurements, "verify")
    assert counts == {"gen": 0, "state": 0, "verify": 1, "bz": 1, "sample": 1, "sweep": 1}


def test_evaluator_calls_per_verb(tmp_path, capsys, monkeypatch):
    # the evaluator is a verb's one handle on its family: building it is the verification
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, DirectEvaluator, "__init__")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 1, "sample": 1, "sweep": 1}


def test_sample_outcomes_calls_per_verb(tmp_path, capsys, monkeypatch):
    # sample --estimate draws its count table once and estimates from it
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, sampler, "sample_outcomes")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 0, "sample": 1, "sweep": 0}


def test_report_calls_per_verb(tmp_path, capsys, monkeypatch):
    # one report per bz; sweep makes its reports with report_many
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, DirectEvaluator, "report")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 1, "sample": 0, "sweep": 0}


def test_report_many_calls_per_verb(tmp_path, capsys, monkeypatch):
    # one per batch of sweep states (the 4 here are one batch) and one per bz,
    # through report; sample takes only probabilities
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, DirectEvaluator, "report_many")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 1, "sample": 0, "sweep": 1}


@pytest.mark.parametrize("estimate", [False, True])
@pytest.mark.parametrize("shots", [str(2**63), "0"])
def test_sample_shots_out_of_range_exits_two(tmp_path, capsys, estimate, shots):
    m = tmp_path / "m.json"
    s = tmp_path / "s.json"
    run(capsys, "gen", "mub", "--dim", "2", "--out", str(m))
    run(capsys, "state", "gen", "--dim", "2", "--seed", "1", "--out", str(s))
    extra = ["--estimate"] if estimate else []
    code, out, err = run(capsys, "sample", "--measurement", str(m), "--state", str(s),
                         "--shots", shots, *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: shots must be an integer in [1, {2**63 - 1}], got {shots}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "mum", "--dim", "100000"),
        ("gen", "gsm", "--dim", "100000"),
        ("gen", "mub", "--dim", "100000"),
        ("sweep", "--dim", "100000", "--states", "1"),
        ("state", "gen", "--dim", "10000000"),
    ],
)
def test_oversized_dimension_exits_two_without_allocating(capsys, argv):
    peak, (code, out, err) = traced_peak(lambda: run(capsys, *argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "GiB" in err
    assert peak < 2**20


def test_sweep_kind_with_a_measurement_file_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "mum", "--dim", "2", "--out", "m.json")
    for kind in ("gsm", "mum"):
        code, out, err = run(capsys, "sweep", "--dim", "2", "--states", "1", "--kind", kind,
                             "--measurement", "m.json", "--out", "s.csv")
        assert code == 2
        assert out == ""
        assert err == "error: --kind applies to a built family, not to a --measurement file\n"
        assert not (tmp_path / "s.csv").exists()
    # unset, --kind builds a mum family
    built = run(capsys, "sweep", "--dim", "2", "--states", "3")[1]
    assert built == run(capsys, "sweep", "--dim", "2", "--states", "3", "--kind", "mum")[1]
    assert built == run(capsys, "sweep", "--dim", "2", "--states", "3", "--measurement", "m.json")[1]



WRONG_SCHEMA = {  # each verb's other arguments, beside the one given a file of the wrong schema
    ("verify", "measurement"): ["verify"],
    ("bz", "measurement"): ["bz", "--state", "state.json", "--out", "out.json"],
    ("bz", "state"): ["bz", "--measurement", "measurement.json", "--out", "out.json"],
    ("sample", "measurement"): ["sample", "--state", "state.json", "--shots", "10", "--out", "out.json"],
    ("sample", "state"): ["sample", "--measurement", "measurement.json", "--shots", "10",
                          "--estimate", "--out", "out.json"],
    ("sweep", "measurement"): ["sweep", "--dim", "2", "--states", "2", "--out", "out.json"],
}


@pytest.mark.parametrize("verb, argument, schema", [
    (verb, argument, schema) for verb, argument in sorted(WRONG_SCHEMA)
    for schema in ("measurement", "state", "report", "counts") if schema != argument
])
def test_a_file_of_another_schema_exits_two(tmp_path, capsys, monkeypatch, verb, argument, schema):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "mum", "--dim", "2", "--out", "measurement.json")
    run(capsys, "state", "gen", "--dim", "2", "--out", "state.json")
    files = ["--measurement", "measurement.json", "--state", "state.json"]
    run(capsys, "bz", *files, "--out", "report.json")
    run(capsys, "sample", *files, "--shots", "10", "--out", "counts.json")
    code, out, err = run(capsys, *WRONG_SCHEMA[verb, argument], f"--{argument}", f"{schema}.json")
    assert code == 2
    assert out == ""
    assert err == f"error: {schema}.json holds no {argument}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_tol_not_finite_and_positive_exits_two(tmp_path, capsys, tol):
    m = tmp_path / "m.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    code, out, err = run(capsys, "verify", "--measurement", str(m), "--tol", tol)
    assert code == 2
    assert out == ""
    assert err == f"error: --tol must be a finite positive number, got {float(tol)!r}\n"


def test_verify_tol_defaults_to_the_library_tolerance(tmp_path, capsys):
    m = tmp_path / "m.json"
    run(capsys, "gen", "mum", "--dim", "2", "--out", str(m))
    assert build_parser().parse_args(["verify", "--measurement", str(m)]).tol is measurements.DEFAULT_TOL
    assert json.loads(run(capsys, "verify", "--measurement", str(m), "--json")[1])["tol"] == 1e-10
