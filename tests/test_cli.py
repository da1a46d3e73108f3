import contextlib
import io
import json
import sys
import tracemalloc

import pytest

from bzinfo import NumericalError, load, measurements, purity, sampler
from bzinfo.cli import SWEEP_HEADER, main
from bzinfo.invariants import DirectEvaluator


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
    # the decode before it verifies the same family and drops "parameter" from its own report
    assert doc["deviations"]["parameter"] < 1e-12


def test_verify_degenerate_exits_one(tmp_path, capsys):
    path = tmp_path / "m.json"
    run(capsys, "gen", "mum", "--dim", "2", "--t", "0", "--out", str(path))
    code, _, _ = run(capsys, "verify", "--measurement", str(path))
    assert code == 1


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
        tracemalloc.start()
        try:
            assert main(["sweep", "--dim", "2", "--states", str(n), "--out", out]) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(open(out).read().splitlines()) == 8001
    # the parent, which joined every row before writing, grew by about 3.8 MiB
    assert abs(peaks[8000] - peaks[2000]) < 64 * 1024, peaks


@pytest.mark.parametrize("k", [0, 5])
def test_sweep_failing_partway_keeps_the_rows_before(tmp_path, capsys, monkeypatch, k):
    report = DirectEvaluator.report
    calls = []

    def fail_at_k(self, rho):
        calls.append(1)
        if len(calls) > k:
            raise NumericalError("probabilities have imaginary part 1e-3")
        return report(self, rho)

    monkeypatch.setattr(DirectEvaluator, "report", fail_at_k)
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "sweep", "--dim", "2", "--states", "10", "--out", str(out))
    assert code == 3
    assert stdout == ""
    assert err == "error: probabilities have imaginary part 1e-3\n"
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(k)]


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


# the benchmark's self-test pins these counts; a change to them needs a benchmark change
def test_verify_calls_per_verb(tmp_path, capsys, monkeypatch):
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, measurements, "verify")
    assert counts == {"gen": 0, "state": 0, "verify": 2, "bz": 2, "sample": 3, "sweep": 1}


def test_sample_outcomes_calls_per_verb(tmp_path, capsys, monkeypatch):
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, sampler, "sample_outcomes")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 0, "sample": 2, "sweep": 0}


def test_report_calls_per_verb(tmp_path, capsys, monkeypatch):
    # one report per sweep state (the sweep here has --states 4) and one per bz
    counts = count_calls_per_verb(tmp_path, capsys, monkeypatch, DirectEvaluator, "report")
    assert counts == {"gen": 0, "state": 0, "verify": 0, "bz": 1, "sample": 0, "sweep": 4}


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
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
