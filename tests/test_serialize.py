import dataclasses
import gc
import io
import json
import math
import os
import warnings

import numpy as np
import pytest

from bzinfo import (
    DirectEvaluator,
    SchemaError,
    build_gsm,
    build_mub,
    build_mum,
    decode,
    encode,
    load,
    random_density,
    sample_outcomes,
    save,
    sic2_fixture,
    verify,
)
from bzinfo import linalg, serialize
from bzinfo.cli import main
from bzinfo.measurements import MUM_KINDS, PARAMETER_NAMES, Family, family_bytes
from bzinfo.serialize import _effects_shape, _gc_paused, _matrix_pieces
from conftest import degenerate_family


def matrix_to_json(m: np.ndarray) -> str:
    """The text encode writes for a matrix: its pieces, joined."""
    return b"".join(_matrix_pieces(m)).decode("ascii")


def roundtrip(entity):
    return decode(encode(entity))


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_mum(3, "auto"),
        lambda: build_mum(2, 0.1),
        lambda: build_gsm(2, "auto"),
        lambda: build_gsm(4, 0.001),
        lambda: build_mub(3),
        lambda: build_mub(5),
        sic2_fixture,
    ],
    ids=["mum3", "mum2", "gsm2", "gsm4", "mub3", "mub5", "sic2"],
)
def test_measurement_roundtrip_preserves_deviations(make):
    family = make()
    before = verify(family, 1e-10)
    after = verify(roundtrip(family), 1e-10)
    assert before.deviations == after.deviations
    assert before.passed == after.passed


def test_state_roundtrip_exact():
    rho = random_density(5, 3, 99)
    np.testing.assert_array_equal(roundtrip(rho), rho)


def test_report_roundtrip_exact():
    report = DirectEvaluator(build_mum(3, "auto")).report(random_density(3, 2, 1))
    assert roundtrip(report) == report


def test_report_of_a_batch_is_not_encoded():
    evaluator = DirectEvaluator(build_mum(2, "auto"))
    reports = evaluator.report_many(np.stack([random_density(2, 2, 1)] * 3))
    with pytest.raises(SchemaError, match="report of a batch of states"):
        encode(reports)
    assert roundtrip(reports.row(2)) == reports.row(2)


def test_counts_roundtrip_exact():
    table = sample_outcomes(DirectEvaluator(build_mub(3)), random_density(3, 3, 2), 250, seed=4)
    back = roundtrip(table)
    assert back.shots_per_povm == table.shots_per_povm
    np.testing.assert_array_equal(back.counts, table.counts)
    assert back.counts.dtype == np.int64 and not back.counts.flags.writeable
    # the most shots a sampler draws
    most = json.dumps({"v": 1, "schema": "counts", "shots": 2**63 - 1, "counts": [[2**63 - 1, 0]]})
    assert decode(most).shots_per_povm == 2**63 - 1


def test_save_load(tmp_path):
    path = tmp_path / "m.json"
    family = build_gsm(3, "auto")
    save(family, path)
    assert verify(load(path), 1e-10).deviations == verify(family, 1e-10).deviations


def test_truncated_file_is_malformed(tmp_path):
    path = tmp_path / "m.json"
    save(build_mum(2, "auto"), path)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(SchemaError, match="malformed JSON"):
        load(path)


# decode reads a well-formed family as stored; verify rejects it, on exactly
# the conditions the tampering breaks.  A stored parameter off its t also
# misplaces the overlaps whose target it is.
def test_inconsistent_kappa_rejected():
    doc = json.loads(encode(build_mum(3, "auto")))
    doc["kappa"] = doc["kappa"] + 1e-6
    family = decode(json.dumps(doc))
    assert isinstance(family, Family) and family.parameter == doc["kappa"]
    assert set(verify(family).failures()) == {"parameter", "within_overlap_diag", "within_overlap_offdiag"}


def test_inconsistent_a_rejected():
    doc = json.loads(encode(build_gsm(2, "auto")))
    doc["a"] = doc["a"] - 1e-5
    family = decode(json.dumps(doc))
    assert isinstance(family, Family) and family.parameter == doc["a"]
    assert set(verify(family).failures()) == {"parameter", "self_overlap", "pair_overlap"}


def test_tampered_effect_rejected():
    doc = json.loads(encode(build_mum(2, "auto")))
    doc["effects"][0][0][0][0][0] += 1e-6  # a diagonal entry, so the effect stays Hermitian
    family = decode(json.dumps(doc))
    assert isinstance(family, Family)
    assert set(verify(family).failures()) == {
        "effect_trace", "cross_overlap", "within_overlap_diag", "within_overlap_offdiag", "completeness",
    }


def test_degenerate_measurement_still_loads():
    # decoding accepts a degenerate family; verification refuses it, and the builders never make one
    family = roundtrip(degenerate_family("mum", 2))
    assert family.parameter == pytest.approx(0.5)


def test_bad_state_rejected():
    doc = json.loads(encode(random_density(2, 2, 0)))
    doc["rho"][0][0][0] += 0.2
    with pytest.raises(SchemaError, match="validation"):
        decode(json.dumps(doc))


def test_unknown_version_rejected():
    doc = json.loads(encode(random_density(2, 2, 0)))
    doc["v"] = 2
    with pytest.raises(SchemaError, match="version"):
        decode(json.dumps(doc))


def test_unknown_schema_rejected():
    with pytest.raises(SchemaError, match="unknown schema"):
        decode(json.dumps({"v": 1, "schema": "blob"}))


def test_counts_row_sum_mismatch_rejected():
    with pytest.raises(SchemaError, match="row sums"):
        decode(json.dumps({"v": 1, "schema": "counts", "shots": 10, "counts": [[3, 3]]}))


def test_tampered_report_discrepancy_rejected():
    doc = json.loads(encode(DirectEvaluator(build_mum(2, "auto")).report(random_density(2, 2, 3))))
    doc["max_abs_discrepancy"] = 1e-3
    with pytest.raises(SchemaError, match="discrepancy"):
        decode(json.dumps(doc))


def test_counts_row_sum_beyond_int64_rejected():
    # summed in int64 the row would wrap around to 5
    big = 2**62
    data = json.dumps({"v": 1, "schema": "counts", "shots": 5, "counts": [[big, big, big, big + 5]]})
    with pytest.raises(SchemaError, match=f"row sums to {4 * big + 5}, expected 5"):
        decode(data)


@pytest.mark.parametrize("value", ["x", [1.0], {"a": 1}, None, 10**400])
def test_report_with_non_numeric_discrepancy_rejected(value):
    doc = json.loads(encode(DirectEvaluator(build_mum(2, "auto")).report(random_density(2, 2, 3))))
    doc["max_abs_discrepancy"] = value
    with pytest.raises(SchemaError, match="malformed report"):
        decode(json.dumps(doc))


@pytest.mark.parametrize(
    "rows", [[[2.7, "1", True]], [[2.0, 2]], [["4"]], [[True, 3]], [[None, 4]], [[[4]]]]
)
def test_counts_rows_of_non_integers_rejected(rows):
    # int64 would read each of the first four rows as summing to 4
    data = json.dumps({"v": 1, "schema": "counts", "shots": 4, "counts": rows})
    with pytest.raises(SchemaError, match="counts rows must be lists of integers"):
        decode(data)


@pytest.mark.parametrize("data, message", [
    (b'{"v": 1, "schema": "counts", "shots": 10, "counts": [[-1, 11]]}', "nonnegative integers"),
    (b'{"v": 1, "schema": "counts", "shots": 10, "counts": [[%d, 0]]}' % 2**63,
     "counts rows must be integers"),
    # each row sums to 2^64, and its collision statistic would come to 2
    (b'{"v": 1, "schema": "counts", "shots": %d, "counts": [[%d, %d, 2]]}' % (2**64, 2**63 - 1, 2**63 - 1),
     rf"^shots {2**64} above the limit of {2**63 - 1}$"),
    # a table is one (POVMs, outcomes) array, and matches no family when ragged
    (b'{"v": 1, "schema": "counts", "shots": 2, "counts": [[1, 1], [2]]}',
     "counts rows must all have the same length"),
    (b"[1]", "top-level JSON value must be an object"),
    ('"\ud800"', "not UTF-8"),
], ids=["negative count", "count beyond int64", "shots beyond a sampler's", "ragged counts",
        "array document", "lone surrogate in a str"])
def test_decode_rejects_a_malformed_document(data, message):
    with pytest.raises(SchemaError, match=message):
        decode(data)


@pytest.mark.parametrize("shots", [True, 1.0])
def test_counts_non_integer_shots_rejected(shots):
    data = json.dumps({"v": 1, "schema": "counts", "shots": shots, "counts": [[1, 0]]})
    with pytest.raises(SchemaError, match=f"invalid shots {shots!r}"):
        decode(data)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "fields", [("V_direct", "max_abs_discrepancy"), ("purity",), ("C_closed",), ("parameter",)]
)
def test_report_with_non_finite_field_rejected(fields, value):
    doc = json.loads(encode(DirectEvaluator(build_mum(2, "auto")).report(random_density(2, 2, 3))))
    for name in fields:
        doc[name] = value
    with pytest.raises(SchemaError) as info:
        decode(json.dumps(doc))  # json.dumps writes NaN, Infinity and -Infinity
    assert str(info.value) == f"report fields must be finite numbers: {', '.join(fields)}"


@pytest.mark.parametrize("field", ["t", "kappa"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_measurement_with_non_finite_t_or_parameter_rejected(field, value):
    doc = json.loads(encode(build_mum(3, "auto")))
    doc[field] = value
    text = json.dumps(doc)  # json.dumps writes NaN and Infinity
    for data in (text, text.encode("utf-8")):  # the json.loads and the bytes route
        with pytest.raises(SchemaError, match="must be finite numbers"):
            decode(data)


MUM_REPORT = DirectEvaluator(build_mum(2, "auto")).report(random_density(2, 2, 3))


@pytest.mark.parametrize(
    "report, field, value, message",
    [
        (MUM_REPORT, "dim", "x", "invalid dim 'x'"),
        (MUM_REPORT, "dim", True, "invalid dim True"),
        (MUM_REPORT, "dim", 0, "invalid dim 0"),
        (MUM_REPORT, "dim", 3, "closed forms inconsistent"),
        (MUM_REPORT, "kind", 7, "unknown report kind 7"),
        (MUM_REPORT, "kind", "sic", "unknown report kind 'sic'"),
        (MUM_REPORT, "kind", "gsm", "fails validation"),
        (MUM_REPORT, "negatives_clamped", -3, "invalid negatives_clamped -3"),
        (MUM_REPORT, "negatives_clamped", False, "invalid negatives_clamped False"),
        (MUM_REPORT, "negatives_clamped", 1.0, "invalid negatives_clamped 1.0"),
        (MUM_REPORT, "parameter", "q", "invalid parameter 'q'"),
        (MUM_REPORT, "parameter", None, "invalid parameter None"),
        (MUM_REPORT, "parameter", 0.9, "closed forms inconsistent"),
        (MUM_REPORT, "purity", 5.0, "fails validation"),
        (MUM_REPORT, "purity", True, "invalid purity True"),
        (MUM_REPORT, "purity", MUM_REPORT.purity + 1e-9, "closed forms inconsistent"),
        (MUM_REPORT, "V_min", MUM_REPORT.V_min + 1e-15, "closed forms inconsistent"),
        (MUM_REPORT, "C_direct", None, "invalid C_direct None"),
        # every report is of a family: the state-only kind is no longer read
        (MUM_REPORT, "kind", "state-only", "unknown report kind 'state-only'"),
    ],
)
def test_report_fields_validated(report, field, value, message):
    doc = json.loads(encode(report))
    doc[field] = value
    with pytest.raises(SchemaError, match=message):
        decode(json.dumps(doc))


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_a_report_of_dimension_one_is_refused(kind):
    # no family has d = 1; the closed forms would divide by d - 1 = 0
    doc = dict(json.loads(encode(MUM_REPORT)), dim=1, kind=kind, parameter=1.0000000000005, purity=1.0)
    with pytest.raises(SchemaError, match="^invalid dim 1$"):
        decode(json.dumps(doc))


def test_reports_of_every_kind_round_trip():
    for family in (build_mum(3), build_gsm(2, 0.01), build_mub(5), sic2_fixture()):
        d, evaluator = family.dim, DirectEvaluator(family)
        for seed in range(10):
            report = evaluator.report(random_density(d, 1 + seed % d, seed))
            assert decode(encode(report)) == report


@pytest.mark.parametrize("entry", ["[1.0, 1e999]", "[1e999, 0.0]", "[-1e999, 0.0]", "[NaN, 0.0]"])
def test_state_with_non_finite_entry_rejected_without_a_warning(entry):
    data = '{"v": 1, "schema": "state", "dim": 1, "rho": [[%s]]}' % entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match="must be finite"):
            decode(data)


def test_matrix_to_json_matches_per_element_floats():
    edges = [-0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e308]
    m = np.empty((5, 5), dtype=complex)
    m.real = np.array(edges)[:, None]
    m.imag = np.array(edges[::-1])[None, :]
    oracle = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    text = matrix_to_json(m)
    assert text == json.dumps(oracle)
    assert text.startswith("[[[-0.0, 1e+308], [-0.0, 0.3333333333333333]")
    assert matrix_to_json(np.stack([m, m])) == json.dumps([oracle, oracle])


def test_non_hermitian_effect_rejected_by_index():
    doc = json.loads(encode(build_gsm(2, "auto")))
    doc["effects"][2][0][1][0] += 1e-9
    with pytest.raises(SchemaError, match="matrix 2 of the stack is not Hermitian"):
        decode(json.dumps(doc))


def test_ragged_effects_rejected():
    doc = json.loads(encode(build_gsm(3, "auto")))
    doc["effects"][4] = [row[:2] for row in doc["effects"][4]]  # one 3x2 effect
    with pytest.raises(SchemaError, match="not \\[re, im\\] numbers"):
        decode(json.dumps(doc))


def test_non_numeric_effect_entry_rejected():
    doc = json.loads(encode(build_mum(2, "auto")))
    doc["effects"][1][0][0][1][0] = "x"
    with pytest.raises(SchemaError, match="not \\[re, im\\] numbers"):
        decode(json.dumps(doc))


@pytest.fixture
def gc_state():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_after_encode_and_decode(gc_state, enabled):
    (gc.enable if enabled else gc.disable)()
    data = encode(build_mum(3, "auto"))
    assert gc.isenabled() is enabled
    decode(data)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_restored_after_failed_decode(gc_state, enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(SchemaError):
        decode(b'{"v": 1, "schema": ')
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_inside_and_restored_after_exception(gc_state, enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError):
        with _gc_paused():
            assert not gc.isenabled()
            raise RuntimeError("boom")
    assert gc.isenabled() is enabled


def reference_json(m: np.ndarray) -> str:
    return json.dumps(np.stack([m.real, m.imag], -1).tolist(), allow_nan=False)


def assert_matches_reference(m: np.ndarray) -> None:
    # names the first differing position; a full diff of megabytes of text is very slow
    ours, reference = matrix_to_json(m), reference_json(m)
    if ours != reference:
        i = len(os.path.commonprefix([ours, reference]))
        pytest.fail(f"text differs at {i}: {ours[i - 30:i + 30]!r} vs {reference[i - 30:i + 30]!r}")


BUILT = [("mum", d) for d in (2, 3, 5, 8, 12)] + [("gsm", d) for d in (2, 3, 5, 8, 12)]
BUILT += [("mub", d) for d in (2, 3, 5)] + [("sic", 2)]  # MUBs need a prime dimension


@pytest.mark.parametrize("kind, d", BUILT)
def test_matrix_to_json_matches_json_dumps_on_built_families(kind, d):
    build = {"mum": build_mum, "gsm": build_gsm, "mub": build_mub, "sic": lambda d: sic2_fixture()}
    family = build[kind](d)
    stored = family.effects.reshape(_effects_shape(kind, d))
    assert stored.ndim == (4 if kind in MUM_KINDS else 3)
    assert_matches_reference(stored)
    assert_matches_reference(family.effects[0])


def test_matrix_to_json_matches_json_dumps_with_all_entries_distinct():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, _ = np.linalg.qr(g)
    effects = q @ build_gsm(6, "auto").effects @ q.conj().T
    assert np.unique(effects.view(np.float64)).size > 0.9 * effects.size * 2
    assert_matches_reference(effects)
    # rotated families, in which no row of pairs repeats, encode as json.dumps writes them
    for family in (build_gsm(6, "auto"), build_mum(6, "auto")):
        rotated = dataclasses.replace(family, effects=q @ family.effects @ q.conj().T)
        rows = rotated.effects.reshape(-1, 6)
        assert np.unique(rows, axis=0).shape == rows.shape
        assert encode(rotated) == measurement_reference(rotated)


def test_matrix_to_json_one_by_one_and_edge_values():
    assert matrix_to_json(np.array([[complex(0.5, -0.0)]])) == "[[[0.5, -0.0]]]"
    for empty in (np.zeros((0, 0), complex), np.zeros((0, 3, 3), complex)):
        assert matrix_to_json(empty) == reference_json(empty) == "[]"
    edges = np.array([-0.0, 0.0, 5e-324, 1e308, -1e-300, 0.1 + 0.2, 1 / 3])
    m = edges[:, None] + 1j * edges[None, :]
    m.imag[0, 0] = -0.0
    m.real[1, 1] = -0.0
    assert matrix_to_json(m) == reference_json(m)
    assert matrix_to_json(m[None, :3, :3]) == reference_json(m[None, :3, :3])
    assert "[-0.0, -0.0]" in matrix_to_json(m)
    # rows that differ only in the sign of one zero keep their own texts
    m = np.zeros((2, 2), dtype=complex)
    m.real[1, 0] = -0.0
    assert matrix_to_json(m) == reference_json(m) == "[[[0.0, 0.0], [0.0, 0.0]], [[-0.0, 0.0], [0.0, 0.0]]]"
    for shape in ((3, 0), (2, 0, 4), (2, 1, 1), (1,), (3,)):
        m = np.full(shape, complex(0.5, -0.0))
        assert matrix_to_json(m) == reference_json(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_matrix_to_json_rejects_non_finite_like_json_dumps(bad):
    m = np.full((3, 3), 0.25, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(ValueError) as ours:
        matrix_to_json(m)
    with pytest.raises(ValueError) as theirs:
        reference_json(m)
    assert str(ours.value) == str(theirs.value)


def reference_encode(doc: dict) -> bytes:
    """Document bytes as a single json.dumps of nested lists writes them."""
    return json.dumps({"v": 1, **doc}, allow_nan=False).encode("utf-8")


def measurement_reference(family) -> bytes:
    stored = family.effects.reshape(_effects_shape(family.kind, family.dim))
    return reference_encode(
        {
            "schema": "measurement",
            "kind": family.kind,
            "dim": family.dim,
            "t": family.t,
            PARAMETER_NAMES[family.kind]: family.parameter,
            "effects": json.loads(reference_json(stored)),
        }
    )


def test_boolean_dim_rejected():
    state = '{"v": 1, "schema": "state", "dim": true, "rho": [[[1.0, 0.0]]]}'
    doc = json.loads(encode(build_mum(2, "auto")))
    doc["dim"] = True
    for data in (state, state.encode("utf-8"), json.dumps(doc), json.dumps(doc).encode("utf-8")):
        with pytest.raises(SchemaError, match="invalid dim"):
            decode(data)


def test_encode_matches_single_json_dumps_for_every_entity():
    rho = random_density(4, 2, 8)
    meta = {"rng": "philox", "seed": 8, "rank": 2, "nested": [1.5, None, "x"]}
    assert encode(rho, meta=meta) == reference_encode(
        {"schema": "state", "dim": 4, "rho": json.loads(reference_json(rho)), "meta": meta}
    )

    family = build_mum(3, "auto")
    assert encode(family) == reference_encode(
        {
            "schema": "measurement",
            "kind": "mum",
            "dim": 3,
            "t": family.t,
            "kappa": family.parameter,
            "effects": json.loads(reference_json(family.effects.reshape(4, 3, 3, 3))),
        }
    )

    report = DirectEvaluator(build_gsm(2, "auto")).report(random_density(2, 2, 1))
    fields = {name: getattr(report, name) for name in serialize._REPORT_FIELDS}
    assert encode(report) == reference_encode({"schema": "report", **fields})

    table = sample_outcomes(DirectEvaluator(build_mub(3)), random_density(3, 3, 2), 100, seed=4)
    counts = [row.tolist() for row in table.counts]
    assert encode(table) == reference_encode({"schema": "counts", "shots": 100, "counts": counts})


def test_decode_rejects_document_above_size_limit(monkeypatch):
    # a two-byte UTF-8 character: the str is one character shorter than its bytes
    data = encode(random_density(2, 2, 0), meta={"note": "x"}).replace(b'"x"', '"\u00e9"'.encode())
    text = data.decode("utf-8")
    assert len(text) == len(data) - 1
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(data))
    assert decode(data).shape == (2, 2)
    assert decode(text).shape == (2, 2)
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(data) - 1)
    for document in (data, text):
        with pytest.raises(SchemaError, match=f"{len(data)} bytes long, above the limit of {len(data) - 1}"):
            decode(document)


def test_load_checks_file_size_before_reading(tmp_path, monkeypatch):
    # json.loads holds a state whole, so its file's size is checked before its text is parsed
    path = tmp_path / "s.json"
    save(random_density(2, 2, 0), path)
    size = path.stat().st_size
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size)
    assert load(path).shape == (2, 2)
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", size - 1)
    monkeypatch.setattr(serialize, "_parse_json", lambda data: pytest.fail("file was parsed"))
    with pytest.raises(SchemaError, match="above the limit"):
        load(path)


# the caps are patched small, so that no test writes a large file
GEN_ARGS = {"mum": ["mum", "--dim", "3"], "gsm": ["gsm", "--dim", "3"], "mub": ["mub", "--dim", "3"],
            "sic": ["sic2"]}
BUILT = {"mum": lambda: build_mum(3, "auto"), "gsm": lambda: build_gsm(3, "auto"),
         "mub": lambda: build_mub(3), "sic": sic2_fixture}


@pytest.mark.parametrize("kind", sorted(GEN_ARGS))
def test_gen_file_above_the_text_limit_loads(tmp_path, monkeypatch, capsys, kind):
    family = BUILT[kind]()
    path = tmp_path / "m.json"
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", family_bytes(kind, family.dim))  # gen's largest
    assert main(["gen", *GEN_ARGS[kind], "--out", str(path)]) == 0
    data = path.read_bytes()
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", len(data) // 4)
    for loaded in (load(path), decode(data)):
        assert (loaded.kind, loaded.dim, loaded.t, loaded.parameter) == (
            family.kind, family.dim, family.t, family.parameter)
        assert loaded.effects.tobytes() == family.effects.tobytes()


@pytest.mark.parametrize("variant", ["re-spaced", "rows re-spaced"])
def test_other_layout_above_the_text_limit_is_refused_unparsed(tmp_path, monkeypatch, variant):
    path = tmp_path / "m.json"
    save(build_mum(3, "auto"), path)
    data = path.read_bytes()
    respaced = {"re-spaced": json.dumps(json.loads(data), indent=1).encode(),
                "rows re-spaced": data.replace(b"]], [[", b"]],  [[")}[variant]
    path.write_bytes(respaced)
    limit = len(data) // 4
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", limit)
    parsed, parse_json = [], serialize._parse_json
    monkeypatch.setattr(serialize, "_parse_json", lambda text: parsed.append(len(text)) or parse_json(text))
    with pytest.raises(SchemaError, match=f"{len(respaced)} bytes long, above the limit of {limit}"):
        load(path)
    assert all(n < limit for n in parsed)  # json.loads saw at most the head


def test_family_above_the_family_limit_is_refused_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save(build_gsm(3, "auto"), path)
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", path.stat().st_size // 4)
    monkeypatch.setattr(linalg, "MAX_DENSE_BYTES", family_bytes("gsm", 3) - 1)
    monkeypatch.setattr(serialize, "_Rows", lambda shape: pytest.fail("stack allocated"))
    with pytest.raises(SchemaError, match="a gsm family of dimension 3 needs .* above the limit"):
        load(path)


def test_text_around_a_canonical_array_is_held_to_the_text_limit(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    save(build_mum(3, "auto"), path, meta={"note": "x" * 1000})
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", 1200)
    assert path.stat().st_size > 1200
    assert load(path).dim == 3
    monkeypatch.setattr(serialize, "MAX_DOCUMENT_BYTES", 1000)
    with pytest.raises(SchemaError, match="above the limit of 1000"):
        load(path)


def test_document_size_limit_admits_d32_families():
    # bounded from the shape with the longest float repr, not built: the
    # d=32 general SIC file is about 50 MB
    longest = repr(-2.2250738585072014e-308)
    per_entry = len(f"[[{longest}, {longest}]], ")
    for kind in ("mum", "gsm"):
        entries = int(np.prod(_effects_shape(kind, 32)))
        assert entries * per_entry + 1000 < serialize.MAX_DOCUMENT_BYTES


@pytest.mark.parametrize("kind", ["mum", "gsm"])
@pytest.mark.parametrize("field", ["I_direct", "U_direct", "V_direct"])
def test_report_with_a_direct_field_moved_one_ulp_rejected(kind, field):
    family, d = {"mum": (build_mum(3), 3), "gsm": (build_gsm(2), 2)}[kind]
    evaluator = DirectEvaluator(family)
    for seed in range(20):
        report = evaluator.report(random_density(d, 1 + seed % d, seed))
        doc = json.loads(encode(report))
        doc[field] = math.nextafter(doc[field], math.inf)
        with pytest.raises(SchemaError, match="inconsistent with fields"):
            decode(json.dumps(doc))


def test_report_with_a_moved_direct_field_names_it():
    doc = json.loads(encode(MUM_REPORT))
    doc["U_direct"] = math.nextafter(doc["U_direct"], -math.inf)
    with pytest.raises(SchemaError, match="^stored U_direct inconsistent with fields$"):
        decode(json.dumps(doc))


@pytest.mark.parametrize("field", serialize._REPORT_FIELDS[2:-1])  # the number fields
def test_report_with_a_huge_integer_field_is_malformed(field):
    doc = json.loads(encode(MUM_REPORT))
    doc[field] = 10**400
    with pytest.raises(SchemaError, match="malformed report document"):
        decode(json.dumps(doc))


@pytest.mark.parametrize("kind", ["mum", "gsm"])
@pytest.mark.parametrize("dim", [10**160, 10**400], ids=["1e160", "1e400"])
def test_report_with_a_dim_too_large_for_floats_is_malformed(kind, dim):
    family = build_mum(3) if kind == "mum" else build_gsm(3)
    doc = json.loads(encode(DirectEvaluator(family).report(random_density(3, 3, 0))))
    doc["dim"] = dim
    with pytest.raises(SchemaError, match="malformed report document"):
        decode(json.dumps(doc))


@pytest.mark.parametrize("field, value", [("t", "0.2928932188134525"), ("t", True),
                                          ("kappa", "0.8535533905932737"), ("kappa", True)])
def test_measurement_with_non_number_t_or_parameter_rejected(field, value):
    doc = json.loads(encode(build_mub(2)))
    doc[field] = value
    text = json.dumps(doc)
    # the bytes are in the encoder's layout, so they take the direct parse
    assert serialize._parse_canonical_measurement(io.BytesIO(text.encode()).read, len(text)) is not None
    for data in (text, text.encode("utf-8")):  # the json.loads and the bytes route
        with pytest.raises(SchemaError) as info:
            decode(data)
        assert str(info.value) == f"malformed measurement document: invalid {field} {value!r}"


@pytest.mark.parametrize("entry", ['["1.0", 0.0]', "[1.0, false]", '[true, 0]', '[1, "0"]'])
def test_state_with_non_number_entry_rejected(entry):
    data = '{"v": 1, "schema": "state", "dim": 1, "rho": [[%s]]}' % entry
    for doc in (data, data.encode("utf-8")):
        with pytest.raises(SchemaError, match=r"matrix entries are not \[re, im\] numbers"):
            decode(doc)


@pytest.mark.parametrize("entry", ['"1.0"', "true", "false"])
def test_respaced_measurement_with_non_number_entry_rejected(entry):
    data = encode(build_mub(2))
    at = data.index(b"[[[[[1.0, ") + 5  # the real part of the first entry
    # without the separator's space the document is left to json.loads
    variant = data[:at] + entry.encode() + data[at + 3:].replace(b", ", b",", 1)
    assert serialize._parse_canonical_measurement(io.BytesIO(variant).read, len(variant)) is None
    with pytest.raises(SchemaError, match=r"matrix entries are not \[re, im\] numbers"):
        decode(variant)
