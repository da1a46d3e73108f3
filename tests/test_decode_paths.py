"""The direct parse of canonical measurement files against the json.loads route.

``decode`` reads a measurement written in the exact layout ``encode`` produces
by parsing its effects straight from the bytes, and every other document with
``json.loads``.  The two routes must agree on every input: the same family,
bit for bit, or a SchemaError from both.  State, report and counts documents,
fuzzed the same way, decode or raise SchemaError and nothing else.
"""

import io
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bzinfo import (
    DirectEvaluator,
    SchemaError,
    build_gsm,
    build_mub,
    build_mum,
    decode,
    encode,
    random_density,
    sample_outcomes,
    sic2_fixture,
)
from bzinfo import DomainError, hermitian, linalg, serialize
from bzinfo.linalg import pack
from bzinfo.measurements import Family
from conftest import traced_peak

SEEDS = [
    encode(build_mum(2, "auto")),
    encode(build_mum(3, 0.1)),
    encode(build_mum(5, "auto")),
    encode(build_gsm(2, "auto")),
    encode(build_gsm(3, "auto"), meta={"note": "a", "n": [1, 2.5]}),
    encode(build_mub(3)),
    encode(build_mub(5)),
    encode(sic2_fixture()),
]

EDGE_LEXEMES = [
    "nan", "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e-999", "+1", "01", "1.",
    ".5", "-0", "0", "1", "-0.0", "1E5", "1e+1", "1_0", "0x1", "1e", "-", "", " 0.5",
    "0.5 ", "true", "null", '"0.5"', "[0.5]", "1" * 30, "1" * 400, "1" * 5000, "é", "0.5,",
]
EDGE_BYTES = [
    b"", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b" ", b",", b"[", b"]", b"}", b'"', b"0",
]


def parse_canonical(data: bytes):
    """The direct parse of a document held in memory."""
    return serialize._parse_canonical_measurement(io.BytesIO(data).read, len(data))


def fast_route(data: bytes):
    """The family from the direct parse, "declined" if it leaves the document to json.loads."""
    doc = parse_canonical(data)
    if doc is None:
        return "declined"
    return outcome(lambda: serialize._decode_document(doc))


def fallback_route(data: bytes):
    return outcome(lambda: serialize._decode_document(serialize._parse_json(data)))


def outcome(thunk):
    # any exception but SchemaError escapes and fails the test
    try:
        return thunk()
    except SchemaError:
        return SchemaError


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def assert_same(a, b) -> None:
    if a is SchemaError or b is SchemaError:
        assert a is b
        return
    assert isinstance(a, Family) and isinstance(b, Family)
    assert (a.kind, a.dim) == (b.kind, b.dim)
    assert bits(a.t) == bits(b.t) and bits(a.parameter) == bits(b.parameter)
    assert a.rows.shape == b.rows.shape
    assert a.rows.tobytes() == b.rows.tobytes()


def check_routes_agree(data: bytes):
    fast, fallback = fast_route(data), fallback_route(data)
    if fast != "declined":
        assert_same(fast, fallback)
    assert_same(outcome(lambda: decode(data)), fallback)
    return fast


def number_spans(data: bytes) -> list[tuple[int, int]]:
    """Byte spans of the number tokens inside the effects array."""
    start = data.index(b'"effects": ') + len(b'"effects": ')
    spans, i = [], start
    while True:
        while data[i:i + 1] in (b"[", b"]", b",", b" "):
            i += 1
        if data[i:i + 1] in (b"}", b""):
            return spans
        j = i
        while data[j:j + 1] not in (b"[", b"]", b",", b" ", b"}", b""):
            j += 1
        spans.append((i, j))
        i = j


NUMBER = r"-?[0-9]{1,3}(\.[0-9]{1,20})?([eE][-+]?[0-9]{1,3})?"


def mutate(data: bytes, draw) -> bytes:
    """One random edit; the unchanged bytes where the edit finds nothing to act on."""
    op = draw(st.sampled_from([
        "truncate", "token", "flip", "bracket", "shift_bracket", "respace", "reorder",
        "duplicate", "trailing_comma", "meta",
    ]))
    if op == "truncate":
        return data[:draw(st.integers(0, len(data)))]
    if op == "flip":  # replace, insert or delete one byte
        i = draw(st.integers(0, len(data)))
        return data[:i] + draw(st.sampled_from(EDGE_BYTES)) + data[i + draw(st.integers(0, 1)):]
    if op == "bracket":  # drop, double or turn one bracket
        brackets = [i for i in range(len(data)) if data[i:i + 1] in (b"[", b"]")]
        if not brackets:
            return data
        i = draw(st.sampled_from(brackets))
        turned = b"[" if data[i:i + 1] == b"]" else b"]"
        edit = draw(st.sampled_from([b"", data[i:i + 1] * 2, turned]))
        return data[:i] + edit + data[i + 1:]
    if op == "shift_bracket":  # "[0.5" to "0.5[", or "0.5]" to "]0.5"
        spans = number_spans(data) if b'"effects": ' in data else []
        if not spans:
            return data
        i, j = draw(st.sampled_from(spans))
        if data[i - 1:i] == b"[":
            return data[:i - 1] + data[i:j] + b"[" + data[j:]
        if data[j:j + 1] == b"]":
            return data[:i] + b"]" + data[i:j] + data[j + 1:]
        return data
    if op in ("token", "respace", "trailing_comma"):
        if op == "token":
            spans = number_spans(data) if b'"effects": ' in data else []
            edits = st.sampled_from(EDGE_LEXEMES) | st.from_regex(NUMBER, fullmatch=True)
        elif op == "respace":
            spans = [(i, i + 2) for i in range(len(data) - 1) if data[i:i + 2] == b", "]
            edits = st.sampled_from([",", ",  ", " , ", ",\n"])
        else:
            spans = [(i, i) for i in range(len(data)) if data[i:i + 1] == b"]"]
            edits = st.just(", ")
        if not spans:
            return data
        i, j = draw(st.sampled_from(spans))
        return data[:i] + draw(edits).encode("utf-8") + data[j:]
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    if not isinstance(doc, dict):
        return data
    if op == "reorder":
        keys = draw(st.permutations(list(doc)))
        return json.dumps({key: doc[key] for key in keys}).encode("utf-8")
    if op == "duplicate":
        key = draw(st.sampled_from(["effects", "dim", "kind", "t", "kappa", "a", "v"]))
        value = draw(st.sampled_from(
            [0, 3, 10**400, "mum", "gsm", None, [[0.5]], float("nan"), doc.get(key, 1)]
        ))
        return data[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}".encode("utf-8")
    meta = draw(st.sampled_from(
        ['"NaN"', "NaN", "Infinity", '{"effects": NaN}', '"\\u00ff"', "[[[[[]]]]]", "1" * 5000]
    ))
    return data[:-1] + b', "meta": ' + meta.encode("utf-8") + b"}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fast_route_and_json_loads_route_agree_on_fuzzed_documents(data):
    document = data.draw(st.sampled_from(SEEDS))
    for _ in range(data.draw(st.integers(1, 3))):
        document = mutate(document, data.draw)
    check_routes_agree(document)


@pytest.mark.parametrize("seed", range(len(SEEDS)))
def test_token_replaced_by_another_float_keeps_the_fast_route(seed):
    data = SEEDS[seed]
    i, j = number_spans(data)[3]
    for lexeme in (b"0.25", b"-1.5e-3", b"2E+2", b"-0.0"):
        assert check_routes_agree(data[:i] + lexeme + data[j:]) != "declined"


def repeated_row(data: bytes, width: int) -> tuple[int, list[tuple[int, int]]]:
    """Index of a row of pairs whose text an earlier row has too, and the token spans by row."""
    spans = number_spans(data)
    rows = [spans[i:i + width] for i in range(0, len(spans), width)]
    seen = set()
    for index, row in enumerate(rows):
        text = data[row[0][0]:row[-1][1]]
        if text in seen:
            return index, rows
        seen.add(text)
    raise AssertionError("no row repeats")


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_token_replaced_inside_a_repeated_row_is_parsed_afresh(kind):
    d = 5
    data = encode(BUILDERS[kind](d))
    index, rows = repeated_row(data, 2 * d)
    for k in (0, 3, 2 * d - 1):
        i, j = rows[index][k]
        # the last digit changed keeps the token's length
        digit = str((int(data[j - 1:j]) + 1) % 10).encode("ascii")
        for lexeme in (data[i:j - 1] + digit, b"0.25", b"-0.0", data[i:j] + b"0", b"nan", b"1e999"):
            variant = data[:i] + lexeme + data[j:]
            doc = parse_canonical(variant)
            if lexeme in (b"nan", b"1e999"):
                assert doc is None
            else:
                # the parse before verification, against the json.loads route's checked rows
                assert_same_rows(doc["effects"], json_route_rows(variant, kind, d))
            check_routes_agree(variant)
    # re + 1j*im keeps the sign of a zero real part only where the imaginary
    # part is negative; the matrix is then no longer Hermitian, on both routes
    (i, _), (_, j) = rows[index][0], rows[index][1]
    variant = data[:i] + b"-0.0, -0.5" + data[j:]
    assert_same_rows(parse_canonical(variant)["effects"], json_route_rows(variant, kind, d))
    check_routes_agree(variant)


def json_route_rows(data: bytes, kind: str, d: int):
    """The packed rows of the json.loads route's symmetrized stack, or the DomainError of ``hermitian``."""
    stored = json.loads(data)["effects"]
    stack = serialize._matrix_from_json(stored, serialize._effects_shape(kind, d)).reshape(-1, d, d)
    try:
        return pack(hermitian(stack))
    except DomainError as exc:
        return exc


def assert_same_rows(a, b) -> None:
    """The same rows bit for bit, or DomainErrors with the same message."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        assert a.tobytes() == b.tobytes()
    else:
        assert (type(a), str(a)) == (type(b), str(b))


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_a_defect_the_direct_parse_finds_is_raised_in_the_json_loads_route_order(monkeypatch, kind):
    """The direct parse symmetrizes and packs a block of matrices at a time, but
    raises the first defect only where the json.loads route checks the effects:
    after the tail and the fields, and naming the matrix by its index in the
    whole stack.  Blocks of three matrices put matrices 12 and 13 in the fifth block."""
    d = 5
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 3 * 16 * d * d)
    assert serialize._Rows((d * d, d, d)).step == 3 * d  # rows of three matrices
    doc = json.loads(encode(BUILDERS[kind](d)))
    stack = doc["effects"] if kind == "gsm" else [m for povm in doc["effects"] for m in povm]
    stack[13][0][1][0] += 1e-6
    # an earlier matrix of the same block, Hermitian but too large to
    # symmetrize: hermitian checks a block's defects before its sums
    stack[12][0][1][0] = stack[12][1][0][0] = 1.5e308
    data = json.dumps(doc).encode()
    assert isinstance(parse_canonical(data)["effects"], DomainError)
    message = "decoded measurement fails validation: matrix 13 of the stack is not Hermitian"
    for route in (lambda: decode(data), lambda: serialize._decode_document(serialize._parse_json(data))):
        with pytest.raises(SchemaError, match=f"^{message} "):
            route()
    # a tail the encoder never writes leaves the document to json.loads, whose error it raises
    with pytest.raises(SchemaError, match="^malformed JSON"):
        decode(data[:-1] + b", }")
    # a field checked before the effects raises first, on both routes
    doc["t"] = "x"
    data = json.dumps(doc).encode()
    assert isinstance(parse_canonical(data)["effects"], DomainError)
    with pytest.raises(SchemaError, match="invalid t 'x'"):
        decode(data)
    assert fallback_route(data) is SchemaError


@pytest.mark.parametrize("kind", ["mum", "gsm"])
def test_row_piece_with_the_wrong_token_count_takes_the_json_loads_route(kind):
    d = 5
    data = encode(BUILDERS[kind](d))
    index, rows = repeated_row(data, 2 * d)
    first, last = rows[index][0], rows[index][-1]
    after = rows[index + 1][0]
    variants = {
        "token dropped": data[:first[0]] + data[first[1] + 2:],
        "token doubled": data[:first[1]] + b", " + data[first[0]:],
        "pair dropped": data[:first[0]] + data[rows[index][2][0]:],
        "rows merged": data[:last[1]] + b"], [" + data[after[0]:],
        "token moved to the next row": (
            data[:rows[index][-2][1]] + b"]], [[" + data[last[0]:last[1]] + b", "
            + data[after[0]:]
        ),
    }
    for name, variant in variants.items():
        assert parse_canonical(variant) is None, name
        assert check_routes_agree(variant) == "declined", name
        assert fallback_route(variant) is SchemaError, name


def non_canonical_variants(data: bytes) -> dict[str, bytes]:
    """Documents encode never writes, derived from one it did write."""
    doc = json.loads(data)
    effects_at = data.index(b'"effects": ')
    i, j = number_spans(data)[3]
    variants = {
        "respaced header": data.replace(b", ", b",", 1),
        "respaced effects": data[:effects_at] + data[effects_at:].replace(b", ", b",", 1),
        "indented": json.dumps(doc, indent=1).encode("utf-8"),
        "reordered": json.dumps(dict(reversed(doc.items()))).encode("utf-8"),
        "duplicated t": data[:-1] + f', "t": {json.dumps(doc["t"])}}}'.encode("utf-8"),
        "duplicated meta": data[:-1] + b', "meta": 1, "meta": 1}',
        "t too large for a float": data[:-1] + b', "t": 1' + b"0" * 400 + b"}",
        "trailing comma": data[:-2] + b", ]}",
        "bracket dropped": data.replace(b"]], [[", b"], [[", 1),
        "bracket moved": data.replace(b"]], [[", b"], [[[", 1),
        "non-ascii meta": data[:-1] + ', "meta": "é"}'.encode("utf-8"),
    }
    for lexeme in ("nan", "NaN", "1e999", "-1e999", "+1", "01", "1.", ".5", "-0", "0", "1", "1e"):
        variants[f"token {lexeme}"] = data[:i] + lexeme.encode("ascii") + data[j:]
    return variants


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_documents_encode_never_writes_take_the_json_loads_route(seed):
    for name, data in non_canonical_variants(SEEDS[seed]).items():
        assert parse_canonical(data) is None, name
        check_routes_agree(data)


BUILDERS = {
    "mum": lambda d: build_mum(d, "auto"),
    "gsm": lambda d: build_gsm(d, "auto"),
    "mub": build_mub,
    "sic": lambda d: sic2_fixture(),
}
ENCODED = [("mum", 2), ("mum", 3), ("mum", 12), ("gsm", 2), ("gsm", 3), ("gsm", 12),
           ("mub", 2), ("mub", 5), ("mub", 11), ("sic", 2)]


@pytest.mark.parametrize("kind, d", ENCODED)
def test_encoder_output_takes_the_fast_route(kind, d):
    family = BUILDERS[kind](d)
    meta = {"source": "test", "values": [1.5, None]}
    for data in (encode(family), encode(family) + b"\n", encode(family, meta=meta) + b"\n"):
        doc = parse_canonical(data)
        assert doc is not None
        assert isinstance(doc["effects"], np.ndarray)
        assert doc.get("meta") == (meta if b"meta" in data else None)
        assert_same(serialize._decode_document(doc), fallback_route(data))
        np.testing.assert_array_equal(decode(data).rows, family.rows)


def test_fast_route_peak_memory_below_json_loads_route():
    data = encode(build_gsm(12, "auto"))
    fast, _ = traced_peak(lambda: serialize._decode_document(parse_canonical(data)))
    fallback, _ = traced_peak(lambda: serialize._decode_document(serialize._parse_json(data)))
    assert fast < fallback


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80abc"])
def test_non_utf8_document_rejected_on_both_routes(bad):
    state = encode(random_density(2, 2, 0), meta={"note": "x"}).replace(b'"x"', b'"' + bad + b'"')
    measurement = SEEDS[0][:-1] + b', "meta": "' + bad + b'"}'
    for data in (state, measurement):
        with pytest.raises(SchemaError, match="not UTF-8"):
            decode(data)
        assert fast_route(data) == "declined"
        assert fallback_route(data) is SchemaError


OTHER_SEEDS = [
    encode(random_density(2, 2, 0)),
    encode(random_density(3, 1, 5), meta={"rng": "philox", "seed": 5, "rank": 1}),
    encode(DirectEvaluator(build_mum(2, "auto")).report(random_density(2, 2, 3))),
    encode(DirectEvaluator(build_gsm(3, "auto")).report(random_density(3, 3, 4))),
    encode(sample_outcomes(DirectEvaluator(build_mub(3)), random_density(3, 3, 2), 50, seed=4)),
]
# integers and floats at the edges of int64, uint64 and float64
WIDE_LEXEMES = [
    "4611686018427387904", "9223372036854775807", "9223372036854775808",
    "18446744073709551616", "-9223372036854775809", "1e308", "-1e308", "1e-320",
]
EDGE_VALUES = [
    None, True, False, 0, -1, 2, 0.5, -0.5, 1e300, float("nan"), float("inf"), 2**62, 2**63,
    2**64, 10**400, "x", "", [], {}, [[]], [[0.5]], [1, 2], [[1, 2], [3]], [[[1.0, 1e300]]],
]


def mutate_field(data: bytes, draw) -> bytes:
    """Replace any number token, or set or drop one top-level field."""
    op = draw(st.sampled_from(["number", "value", "drop"]))
    if op == "number":
        spans = [m.span() for m in re.finditer(rb"-?[0-9][0-9.eE+-]*", data)]
        if not spans:
            return data
        i, j = draw(st.sampled_from(spans))
        lexemes = st.sampled_from(EDGE_LEXEMES + WIDE_LEXEMES) | st.from_regex(NUMBER, fullmatch=True)
        return data[:i] + draw(lexemes).encode("utf-8") + data[j:]
    try:
        doc = json.loads(data)
    except ValueError:
        return data
    if not isinstance(doc, dict) or not doc:
        return data
    key = draw(st.sampled_from(sorted(doc)))
    if op == "drop":
        del doc[key]
    else:
        doc[key] = draw(st.sampled_from(EDGE_VALUES))
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_state_report_and_counts_documents_raise_only_schema_error(data):
    document = data.draw(st.sampled_from(OTHER_SEEDS))
    for _ in range(data.draw(st.integers(1, 3))):
        edit = mutate if data.draw(st.booleans()) else mutate_field
        document = edit(document, data.draw)
    outcome(lambda: decode(document))
