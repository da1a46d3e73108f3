"""Lossless JSON persistence for states, measurements, reports and counts.

Numbers are emitted with Python's shortest round-trip float repr, complex
entries as [re, im] pairs in row-major order.  Every document carries the
schema version field "v": 1 and a "schema" discriminator.  Decoding
re-validates the entity, so a tampered or truncated file never yields a
usable object, and a document longer than ``MAX_DOCUMENT_BYTES`` is
rejected before it is read whole or parsed.

A built family repeats a few hundred distinct values, and a few thousand
distinct rows of [re, im] pairs, across hundreds of thousands of entries.
So a matrix is written by formatting each distinct float once, writing
each distinct row once from those words, and joining the row texts with
the array's brackets and separators into the document in one step, without
building nested Python lists; the bytes equal ``json.dumps`` of the nested
[re, im] lists.  Reading a measurement file works the other way: when the
file has exactly the layout ``encode`` writes, its "effects" array is split
into row pieces, each distinct piece is parsed once, token by token, and
the rows are gathered straight into a float array.  Any other valid JSON
document, re-spaced or reordered say, still loads through the general
``json.loads`` parser, and both routes give the same entity or the same
SchemaError.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import re

import numpy as np

from .errors import BzinfoError, SchemaError
from .invariants import REPORT_KINDS, BzReport, closed_forms
from .linalg import hermitian
from .measurements import MUM_KINDS, PARAMETER_NAMES, Family, verify
from .sampler import CountTable
from .states import DensityMatrix, validate_state

SCHEMA_VERSION = 1
# longest document decode accepts; a d=32 general SIC file is about 50 MB
MAX_DOCUMENT_BYTES = 256 * 2**20
PARAMETER_TOL = 1e-9
CONDITION_TOL = 1e-10

# patterns, which re compiles on first use (and caches) rather than at import
_EFFECTS_OPENING = rb'"effects": (\[+)'
# bytes of JSON numbers, deleted to leave an array's brackets and separators
_NUMBER_BYTES = b"0123456789+-.eE"
# brackets around a JSON number that has a fraction or an exponent
_BRACKETED_FLOAT = rb"\[*(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))\]*"
# bytes per step of the direct parse, which bounds its temporary lists
_CHUNK_BYTES = 2**20
# what the encoder writes between two rows of [re, im] pairs, in a matrix or across two
_ROW_SEPARATOR = b"]], [["

_REPORT_FIELDS = (
    "dim",
    "kind",
    "parameter",
    "purity",
    "C_direct",
    "C_closed",
    "V_direct",
    "V_closed",
    "V_min",
    "V_max",
    "I_direct",
    "I_closed",
    "U_direct",
    "U_closed",
    "max_abs_discrepancy",
    "negatives_clamped",
)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its previous state on exit.

    Parsing a large family builds hundreds of thousands of small [re, im]
    lists, which trigger collections that find no garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _skeleton(shape: tuple[int, ...], entry: str) -> str:
    """``json.dumps`` text of a nested list of this shape with every entry written as ``entry``."""
    text = entry
    for size in reversed(shape):
        text = "[" + ", ".join([text] * size) + "]"
    return text


def _matrix_pieces(m: np.ndarray) -> list[bytes]:
    """Pieces of the JSON text of a matrix or a stack of them, as nested [re, im] pairs.

    Joined, the pieces are the ASCII bytes of ``json.dumps(np.stack([m.real,
    m.imag], -1).tolist(), allow_nan=False)``, non-finite entries raising its
    ValueError.  Each distinct row of pairs (keyed by its bytes, so that -0.0
    keeps its own key) is written once, from words of each distinct float
    formatted once; the rows' texts alternate with the brackets and
    separators around them.
    """
    pairs = np.stack([m.real, m.imag], axis=-1)
    flat = pairs.reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        json.dumps(float(flat[~finite][0]), allow_nan=False)  # raises json's ValueError
    if flat.size == 0:
        return [_skeleton(pairs.shape, "").encode("ascii")]
    raw = pairs.tobytes()
    width = pairs.itemsize * 2 * pairs.shape[-2]  # bytes of one row of pairs
    index = {}  # bytes of each distinct row -> its position among them
    row_of = [index.setdefault(raw[i:i + width], len(index)) for i in range(0, len(raw), width)]
    # bit patterns, not values, so that -0.0 keeps its own word
    bits, word_of = np.unique(np.frombuffer(b"".join(index), np.uint64), return_inverse=True)
    words = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    row_format = _skeleton(pairs.shape[-2:], "%s")
    texts = [
        (row_format % tuple(row)).encode("ascii")
        for row in words[word_of].reshape(len(index), -1).tolist()
    ]
    separators = _skeleton(pairs.shape[:-2], "%s").encode("ascii").split(b"%s")
    pieces = [b""] * (2 * len(separators) - 1)
    pieces[::2] = separators
    pieces[1::2] = map(texts.__getitem__, row_of)
    return pieces


def _matrix_from_json(rows, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array of the given shape from nested lists of [re, im] pairs."""
    try:
        a = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"matrix entries are not [re, im] numbers: {exc}") from exc
    if a.shape != (*shape, 2):
        raise SchemaError(f"expected shape {shape} of [re, im] pairs, got shape {a.shape}")
    # checked before 1j * inf could turn an infinite part into nan
    if not np.isfinite(a).all():
        raise SchemaError("matrix entries must be finite numbers")
    return a[..., 0] + 1j * a[..., 1]


def _encode_state(rho: DensityMatrix) -> dict:
    return {"schema": "state", "dim": rho.dim, "rho": rho.matrix}


def _effects_shape(kind: str, d: int) -> tuple[int, ...]:
    """Stored shape of a family's effects: MUM-like kinds nest one list per POVM."""
    return (d + 1, d, d, d) if kind in MUM_KINDS else (d * d, d, d)


def _measurement_fields(kind: str, dim, t, parameter, effects) -> dict:
    """The fields of a measurement document after "v", in the order ``encode`` writes them."""
    return {
        "schema": "measurement",
        "kind": kind,
        "dim": dim,
        "t": t,
        PARAMETER_NAMES[kind]: parameter,
        "effects": effects,
    }


def _encode_measurement(family: Family) -> dict:
    stored = family.effects.reshape(_effects_shape(family.kind, family.dim))
    return _measurement_fields(family.kind, family.dim, family.t, family.parameter, stored)


def _encode_report(report: BzReport) -> dict:
    doc = {"schema": "report"}
    doc.update({name: getattr(report, name) for name in _REPORT_FIELDS})
    return doc


def _encode_counts(table: CountTable) -> dict:
    return {
        "schema": "counts",
        "shots": table.shots_per_povm,
        "counts": [[int(c) for c in row] for row in table.counts],
    }


_ENCODERS = {
    DensityMatrix: _encode_state,
    Family: _encode_measurement,
    BzReport: _encode_report,
    CountTable: _encode_counts,
}


def _document_bytes(doc: dict) -> bytes:
    """The document's fields in order, with the bytes ``json.dumps`` gives for them.

    The pieces of every field are joined once, so a large matrix's text is
    not copied again into the document.
    """
    pieces = [b"{"]
    for i, (key, value) in enumerate(doc.items()):
        pieces.append(f"{', ' if i else ''}{json.dumps(key)}: ".encode("ascii"))
        if isinstance(value, np.ndarray):
            pieces += _matrix_pieces(value)
        else:
            pieces.append(json.dumps(value, allow_nan=False).encode("ascii"))
    pieces.append(b"}")
    return b"".join(pieces)


def encode(entity, meta: dict | None = None) -> bytes:
    """Serialize an entity to JSON bytes.

    The entity encoders return the document's fields in order, matrices as
    complex arrays; the object is assembled field by field, with the bytes
    ``json.dumps`` gives for the same document holding nested [re, im] lists.
    """
    encoder = _ENCODERS.get(type(entity))
    if encoder is None:
        raise SchemaError(f"cannot encode object of type {type(entity).__name__}")
    doc = {"v": SCHEMA_VERSION, **encoder(entity)}
    if meta is not None:
        doc["meta"] = meta
    return _document_bytes(doc)


def _check_document_size(size: int) -> None:
    if size > MAX_DOCUMENT_BYTES:
        raise SchemaError(
            f"document is {size} bytes long, above the limit of {MAX_DOCUMENT_BYTES} bytes"
        )


def _parse_json(data: bytes | str):
    """The document as ``json.loads`` reads it; bytes must be UTF-8."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"document is not UTF-8: {exc}") from exc
    try:
        with _gc_paused():
            return json.loads(data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, integer digit limit, nesting
        raise SchemaError(f"malformed JSON: {exc}") from exc


def _parse_canonical_measurement(data: bytes) -> dict | None:
    """The document ``_parse_json`` gives for a measurement in the layout ``encode`` writes.

    The "effects" array is cut out and its numbers parsed straight into a
    float64 array of shape (*stored shape, 2), which stands in for the
    nested [re, im] lists; the rest of the document goes through
    ``json.loads`` with a 0 in the array's place.  Returns None, leaving the
    document to ``_parse_json``, unless the other fields, their order and
    spacing are byte-equal to what ``encode`` writes for their values (with
    or without the newline ``save`` appends), the array's brackets and
    separators are byte-equal to the encoder's, and every number in it has
    a fraction or an exponent and is finite.  Those numbers ``json.loads``
    parses with ``float()`` too; it reads an integer such as "-0" as an int
    (0, not -0.0).
    """
    opening = re.search(_EFFECTS_OPENING, data)
    if opening is None:
        return None
    start, depth = opening.start(1), len(opening[1])
    # inside the encoder's array no more than depth - 1 brackets close in a row
    stop = data.find(b"]" * depth, start)
    if stop < 0:
        return None
    stop += depth
    spliced = data[:start] + b"0" + data[stop:]
    try:
        doc = json.loads(spliced.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return None
    if not isinstance(doc, dict):
        return None
    kind, d = doc.get("kind"), doc.get("dim")
    if not (isinstance(kind, str) and kind in PARAMETER_NAMES and type(d) is int and d >= 1):
        return None
    # equal bytes put the 0 under the one "effects" key, with no key repeated or moved
    fields = _measurement_fields(kind, d, doc.get("t"), doc.get(PARAMETER_NAMES[kind]), 0)
    canonical = {"v": doc.get("v"), **fields}
    if "meta" in doc:
        canonical["meta"] = doc["meta"]
    try:
        expected = _document_bytes(canonical)
    except (ValueError, RecursionError):  # NaN or infinity, or deep nesting, in meta
        return None
    if spliced not in (expected, expected + b"\n"):  # the newline save appends
        return None
    shape = (*_effects_shape(kind, d), 2)
    values = _canonical_numbers(data, start, stop, shape)
    if values is None:
        return None
    doc["effects"] = values.reshape(shape)
    return doc


class _Numbers(dict):
    """Value of each number token, with its enclosing brackets, parsed on first lookup.

    A token that is not a JSON number with a fraction or an exponent, or
    whose value is not finite, raises ValueError.
    """

    def __missing__(self, token: bytes) -> float:
        match = re.fullmatch(_BRACKETED_FLOAT, token)
        if match is None:
            raise ValueError(f"not a number token: {token!r}")
        value = float(match[1])
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {token!r}")
        self[token] = value
        return value


class _Rows(dict):
    """float64 bytes of each row piece's numbers, parsed on first lookup.

    A piece is the text of one row of [re, im] pairs without its outer
    brackets; it is split at ", " and each token parsed through ``_Numbers``,
    so a token that is not a bracketed finite number raises ValueError.
    """

    def __init__(self) -> None:
        super().__init__()
        self.numbers = _Numbers()

    def __missing__(self, piece: bytes) -> bytes:
        tokens = piece.split(b", ")
        row = np.fromiter(
            map(self.numbers.__getitem__, tokens), dtype=np.float64, count=len(tokens)
        ).tobytes()
        self[piece] = row
        return row


def _canonical_numbers(data: bytes, start: int, stop: int, shape: tuple[int, ...]):
    """Entries of the nested array ``data[start:stop]``, or None if it is not written as encoded."""
    n = math.prod(shape)
    # the brackets and separators, in order, without the numbers between them
    skeleton = b"".join(
        data[i:min(i + _CHUNK_BYTES, stop)].translate(None, _NUMBER_BYTES)
        for i in range(start, stop, _CHUNK_BYTES)
    )
    # the token count bounds the canonical skeleton built next by the document's length
    if skeleton.count(b",") != n - 1 or skeleton != _skeleton(shape, "").encode("ascii"):
        return None

    # Splitting at the row separators, then each piece at its ", ", leaves the
    # n tokens that splitting at every ", " would, less the separators'
    # brackets; each must be brackets around one number, so numbers sit only
    # where the encoder puts them.  Each distinct row piece is parsed once.
    # A chunk ends before a row separator, so it holds whole rows.
    out = np.empty(n, dtype=np.float64)
    rows = _Rows()
    filled = 0
    pos = start
    try:
        while pos < stop:
            cut = data.find(_ROW_SEPARATOR, pos + _CHUNK_BYTES, stop)
            if cut < 0:
                cut = stop
            # the brackets that open or close a matrix, or the array, stay out of the key
            pieces = [piece.strip(b"[]") for piece in data[pos:cut].split(_ROW_SEPARATOR)]
            values = np.frombuffer(b"".join(map(rows.__getitem__, pieces)), dtype=np.float64)
            out[filled:filled + values.size] = values
            filled += values.size
            pos = cut + len(_ROW_SEPARATOR)
    except ValueError:
        return None
    return out


def decode(data: bytes | str):
    """Parse and re-validate a serialized entity.

    A document longer than ``MAX_DOCUMENT_BYTES`` (counted in characters for
    a str) raises SchemaError before it is parsed, and bytes that are not
    UTF-8 raise SchemaError.  A measurement in the layout ``encode`` writes
    has its effects parsed directly from the bytes; any other document, and
    any str, is read by ``json.loads``, with the same result.
    """
    _check_document_size(len(data))
    doc = _parse_canonical_measurement(data) if isinstance(data, bytes) else None
    if doc is None:
        doc = _parse_json(data)
    # load passes the text it read straight in, so dropping this reference
    # frees the text before the entity is validated
    del data
    return _decode_document(doc)


def _decode_document(doc):
    """The entity a parsed document describes, re-validated."""
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    if doc.get("v") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {doc.get('v')!r}")
    schema = doc.get("schema")
    decoders = {
        "state": _decode_state,
        "measurement": _decode_measurement,
        "report": _decode_report,
        "counts": _decode_counts,
    }
    if not isinstance(schema, str) or schema not in decoders:
        raise SchemaError(f"unknown schema {schema!r}")
    return decoders[schema](doc)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    return doc[key]


def _decode_state(doc: dict) -> DensityMatrix:
    d = _require(doc, "dim")
    # JSON integers only: bool is an int subclass
    if type(d) is not int or d < 1:
        raise SchemaError(f"invalid dim {d!r}")
    rho = _matrix_from_json(_require(doc, "rho"), (d, d))
    try:
        return validate_state(rho)
    except BzinfoError as exc:
        raise SchemaError(f"decoded state fails validation: {exc}") from exc


def _decode_measurement(doc: dict):
    kind = _require(doc, "kind")
    d = _require(doc, "dim")
    if type(d) is not int or d < 2:
        raise SchemaError(f"invalid dim {d!r}")
    effects = _require(doc, "effects")
    if not isinstance(kind, str) or kind not in PARAMETER_NAMES:
        raise SchemaError(f"unknown measurement kind {kind!r}")
    name = PARAMETER_NAMES[kind]

    try:
        t = float(_require(doc, "t"))
        parameter = float(_require(doc, name))
        if not (math.isfinite(t) and math.isfinite(parameter)):
            raise SchemaError(f"t and {name} must be finite numbers, got {t!r} and {parameter!r}")
        stack = hermitian(_matrix_from_json(effects, _effects_shape(kind, d)).reshape(-1, d, d))
        stack.setflags(write=False)
        family = Family(kind=kind, dim=d, t=t, parameter=parameter, effects=stack)
    except SchemaError:
        raise
    except BzinfoError as exc:
        raise SchemaError(f"decoded measurement fails validation: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge integer overflows
        raise SchemaError(f"malformed measurement document: {exc}") from exc

    report = verify(family, CONDITION_TOL)
    parameter_dev = report.deviations.pop("parameter")
    if not parameter_dev < PARAMETER_TOL:
        raise SchemaError(
            f"stored {name} inconsistent with t (deviation {parameter_dev:.3e})"
        )
    bad = [key for key, v in report.deviations.items() if not v < CONDITION_TOL]
    if bad:
        raise SchemaError(f"decoded measurement violates: {', '.join(bad)}")
    return family


def _decode_report(doc: dict) -> BzReport:
    values = {name: _require(doc, name) for name in _REPORT_FIELDS}
    # json.loads reads NaN, Infinity and overlong exponents as non-finite floats
    non_finite = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    if non_finite:
        raise SchemaError(f"report fields must be finite numbers: {', '.join(non_finite)}")
    d, kind, clamped = values["dim"], values["kind"], values["negatives_clamped"]
    # JSON integers only: bool is an int subclass
    if type(d) is not int or d < 1:
        raise SchemaError(f"invalid dim {d!r}")
    if kind not in REPORT_KINDS:
        raise SchemaError(f"unknown report kind {kind!r}")
    if type(clamped) is not int or clamped < 0:
        raise SchemaError(f"invalid negatives_clamped {clamped!r}")
    for name in _REPORT_FIELDS[2:-1]:  # "parameter" to "max_abs_discrepancy": numbers
        value = values[name]
        # a state-only report has no parameter and no coincidence
        if kind == "state-only" and name in ("parameter", "C_direct", "C_closed"):
            valid = value is None
        else:
            valid = type(value) in (int, float)
        if not valid:
            raise SchemaError(f"malformed report document: invalid {name} {value!r}")
    try:
        report = BzReport(**values)
        closed = closed_forms(kind, d, report.parameter, report.purity)
        pairs = [
            (report.V_direct, report.V_closed),
            (report.I_direct, report.I_closed),
            (report.U_direct, report.U_closed),
        ]
        if report.C_direct is not None:
            pairs.append((report.C_direct, report.C_closed))
        recomputed = max(abs(x - y) for x, y in pairs)
        inconsistent = abs(recomputed - report.max_abs_discrepancy) > 1e-15
    except BzinfoError as exc:  # a parameter or purity out of its range
        raise SchemaError(f"decoded report fails validation: {exc}") from exc
    except OverflowError as exc:  # a huge integer overflows a float
        raise SchemaError(f"malformed report document: {exc}") from exc
    stored = (report.C_closed, report.V_closed, report.V_min, report.V_max, report.I_closed,
              report.U_closed)
    if stored != (closed.C, closed.V, closed.V_min, closed.V_max, closed.I, closed.U):
        raise SchemaError("stored closed forms inconsistent with kind, dim, parameter and purity")
    if inconsistent:
        raise SchemaError("stored max_abs_discrepancy inconsistent with fields")
    return report


def _decode_counts(doc: dict) -> CountTable:
    shots = _require(doc, "shots")
    rows = _require(doc, "counts")
    # JSON integers only: bool is an int subclass, and int64 would truncate floats
    if type(shots) is not int or shots < 1:
        raise SchemaError(f"invalid shots {shots!r}")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("counts must be a non-empty list of rows")
    decoded = []
    for row in rows:
        if not isinstance(row, list) or any(type(c) is not int for c in row):
            raise SchemaError("counts rows must be lists of integers")
        try:
            counts = np.asarray(row, dtype=np.int64)
        except OverflowError as exc:
            raise SchemaError(f"counts rows must be integers: {exc}") from exc
        if counts.size == 0 or counts.min() < 0:
            raise SchemaError("counts rows must be nonnegative integers")
        total = sum(counts.tolist())  # Python ints: an int64 sum could wrap
        if total != shots:
            raise SchemaError(f"row sums to {total}, expected {shots}")
        counts.setflags(write=False)
        decoded.append(counts)
    return CountTable(shots_per_povm=shots, counts=tuple(decoded))


def save(entity, path, meta: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(encode(entity, meta=meta))
        fh.write(b"\n")


def load(path):
    with open(path, "rb") as fh:
        _check_document_size(os.fstat(fh.fileno()).st_size)
        # a pipe reports size 0, so read at most one byte past the limit either way
        return decode(fh.read(MAX_DOCUMENT_BYTES + 1))
