import json
import sys
import tracemalloc

import pytest

from bzinfo import NumericalError, measurements, sampler
from bzinfo.cli import main
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
    # three POVMs draw seed + 0..2; the bootstrap draws seed + 3
    largest = 2**64 - (4 if estimate else 3)
    extra = ["--estimate"] if estimate else []
    code, _, err = run(capsys, *argv, "--seed", U64_MAX, *extra)
    assert code == 2
    assert f"[0, {largest}], got {U64_MAX}" in err
    assert str(2**64) not in err
    code, _, _ = run(capsys, *argv, "--seed", str(largest), *extra)
    assert code == 0


def test_sweep_seed_overflow_names_given_seed(capsys):
    argv = ["sweep", "--dim", "2", "--states", "2"]
    code, _, err = run(capsys, *argv, "--seed", U64_MAX)
    assert code == 2
    assert f"[0, {2**64 - 2}], got {U64_MAX}" in err
    assert str(2**64) not in err
    code, _, _ = run(capsys, *argv, "--seed", str(2**64 - 2))
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
