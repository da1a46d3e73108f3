import json

import numpy as np
import pytest

from bzinfo import (
    SchemaError,
    build_gsm,
    build_mub,
    build_mum,
    bz_report,
    decode,
    encode,
    load,
    random_density,
    sample_outcomes,
    save,
    sic2_fixture,
    verify,
)
from bzinfo.serialize import _matrix_to_json


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
    np.testing.assert_array_equal(roundtrip(rho).matrix, rho.matrix)


def test_report_roundtrip_exact():
    report = bz_report(build_mum(3, "auto"), random_density(3, 2, 1))
    assert roundtrip(report) == report


def test_counts_roundtrip_exact():
    table = sample_outcomes(build_mub(3), random_density(3, 3, 2), 250, seed=4)
    back = roundtrip(table)
    assert back.shots_per_povm == table.shots_per_povm
    for x, y in zip(back.counts, table.counts):
        np.testing.assert_array_equal(x, y)


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


def test_inconsistent_kappa_rejected():
    doc = json.loads(encode(build_mum(3, "auto")))
    doc["kappa"] = doc["kappa"] + 1e-6
    with pytest.raises(SchemaError, match="kappa inconsistent"):
        decode(json.dumps(doc))


def test_inconsistent_a_rejected():
    doc = json.loads(encode(build_gsm(2, "auto")))
    doc["a"] = doc["a"] - 1e-5
    with pytest.raises(SchemaError, match="a inconsistent"):
        decode(json.dumps(doc))


def test_tampered_effect_rejected():
    doc = json.loads(encode(build_mum(2, "auto")))
    doc["effects"][0][0][0][0][0] += 1e-6
    with pytest.raises(SchemaError, match="violates"):
        decode(json.dumps(doc))


def test_degenerate_measurement_still_loads():
    # constructors are total; degeneracy is a verification policy
    family = roundtrip(build_mum(2, 0.0))
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
    doc = json.loads(encode(bz_report(build_mum(2, "auto"), random_density(2, 2, 3))))
    doc["max_abs_discrepancy"] = 1e-3
    with pytest.raises(SchemaError, match="discrepancy"):
        decode(json.dumps(doc))


def test_matrix_to_json_matches_per_element_floats():
    edges = [-0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1e308]
    m = np.empty((5, 5), dtype=complex)
    m.real = np.array(edges)[:, None]
    m.imag = np.array(edges[::-1])[None, :]
    oracle = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    text = json.dumps(_matrix_to_json(m))
    assert text == json.dumps(oracle)
    assert text.startswith("[[[-0.0, 1e+308], [-0.0, 0.3333333333333333]")
    assert json.dumps(_matrix_to_json(np.stack([m, m]))) == json.dumps([oracle, oracle])


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
