"""Lossless JSON persistence for states, measurements, reports and counts.

Numbers are emitted with Python's shortest round-trip float repr, complex
entries as [re, im] pairs in row-major order.  Every document carries the
schema version field "v": 1 and a "schema" discriminator.  Decoding
re-validates the entity, so a tampered or truncated file never yields a
usable object; a document longer than ``MAX_DOCUMENT_BYTES`` is rejected.
A report is rebuilt from its direct inputs by ``invariants.reconcile``,
which makes every report, and must equal the stored fields exactly.

A family repeats a few thousand distinct rows of [re, im] pairs across
hundreds of thousands of entries.  So a matrix is written as pieces: each
distinct row's text, formatted once, between the array's brackets and
separators; ``encode`` joins them, ``save`` writes them in blocks of about
``_CHUNK_BYTES``.  A measurement file in exactly that layout is read back
in blocks cut at the row separators, each distinct row checked and parsed
once and gathered straight into a complex stack.  Any other JSON document
is read whole by ``json.loads``, with the same entity or SchemaError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import re
import stat

import numpy as np

from .errors import BzinfoError, SchemaError
from .invariants import REPORT_KINDS, BzReport, reconcile
from .linalg import hermitian
from .measurements import MUM_KINDS, PARAMETER_NAMES, Family, verify
from .sampler import CountTable
from .states import DensityMatrix, validate_state

SCHEMA_VERSION = 1
# longest document decode accepts; a d=32 general SIC file is about 50 MB
MAX_DOCUMENT_BYTES = 256 * 2**20
PARAMETER_TOL = 1e-9
CONDITION_TOL = 1e-10

# bytes per block that save writes and the direct parse reads
_CHUNK_BYTES = 2**18
# what precedes the effects array, within the first _HEAD_BYTES of a canonical file
_EFFECTS_OPENING = b'"effects": ['
_HEAD_BYTES = 2**12
# a JSON number with a fraction or an exponent, which json.loads reads with float()
_NUMBER = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
# what the encoder writes between two rows of [re, im] pairs, in a matrix or across two
_ROW_SEPARATOR = b"]], [["

_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(BzReport))


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
    ValueError.  Each distinct row of pairs, keyed a block at a time by the
    bytes of the entries' float64 view (so -0.0 keeps its own key), is
    written once from words of each distinct float formatted once.
    """
    entries = np.ascontiguousarray(m, dtype=np.complex128)
    if entries.size == 0:
        return [_skeleton((*m.shape, 2), "").encode("ascii")]
    rows = entries.view(np.float64).reshape(-1, 2 * m.shape[-1])
    width = rows.itemsize * rows.shape[1]  # bytes of one row of pairs
    index, row_of = {}, []  # bytes of each distinct row -> its position; each row's position
    step = max(1, _CHUNK_BYTES // width)
    for start in range(0, len(rows), step):
        raw = rows[start:start + step].tobytes()
        row_of += [index.setdefault(raw[i:i + width], len(index)) for i in range(0, len(raw), width)]
    # bit patterns, not values, so that -0.0 keeps its own word
    bits, word_of = np.unique(np.frombuffer(b"".join(index), np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():  # json's ValueError, for the first non-finite entry
        json.dumps(float(next(x for x in rows.flat if not math.isfinite(x))), allow_nan=False)
    words = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    row_format = _skeleton((m.shape[-1], 2), "%s")
    row_words = words[word_of].reshape(len(index), -1).tolist()
    texts = [(row_format % tuple(row)).encode("ascii") for row in row_words]
    separators = _skeleton(m.shape[:-1], "%s").encode("ascii").split(b"%s")
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
    # JSON numbers only: float64 would parse a numeric string, and bool is an int subclass
    if not set(map(type, np.asarray(rows, dtype=object).flat)) <= {int, float}:
        raise SchemaError("matrix entries are not [re, im] numbers: a string or a boolean")
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


def _document(entity, meta: dict | None) -> dict:
    """The fields of an entity's document in order, matrices as complex arrays."""
    encoder = _ENCODERS.get(type(entity))
    if encoder is None:
        raise SchemaError(f"cannot encode object of type {type(entity).__name__}")
    doc = {"v": SCHEMA_VERSION, **encoder(entity)}
    if meta is not None:
        doc["meta"] = meta
    return doc


def _document_pieces(doc: dict) -> list[bytes]:
    """Pieces of the document's text: its fields in order, with the bytes ``json.dumps`` gives."""
    pieces = [b"{"]
    for i, (key, value) in enumerate(doc.items()):
        pieces.append(f"{', ' if i else ''}{json.dumps(key)}: ".encode("ascii"))
        if isinstance(value, np.ndarray):
            pieces += _matrix_pieces(value)
        else:
            pieces.append(json.dumps(value, allow_nan=False).encode("ascii"))
    pieces.append(b"}")
    return pieces


def encode(entity, meta: dict | None = None) -> bytes:
    """The JSON bytes ``json.dumps`` gives for an entity's document, with nested [re, im] lists."""
    return b"".join(_document_pieces(_document(entity, meta)))


def dump(entity, write, meta: dict | None = None) -> None:
    """Write the bytes ``encode`` gives and a newline, one join of whole pieces per ``write`` call.

    Pieces alternate row texts and separators, so runs of equally many hold about ``_CHUNK_BYTES``.
    """
    pieces = _document_pieces(_document(entity, meta)) + [b"\n"]
    step = max(1, len(pieces) * _CHUNK_BYTES // sum(map(len, pieces)))
    for start in range(0, len(pieces), step):
        write(b"".join(pieces[start:start + step]))


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


def _json_object(text: bytes) -> dict | None:
    """The JSON object ``text`` holds, or None if it holds no UTF-8 JSON object."""
    with contextlib.suppress(SchemaError):
        doc = _parse_json(text)
        return doc if isinstance(doc, dict) else None


def _blocks(read, limit: int):
    """Blocks of at most ``_CHUNK_BYTES`` from ``read``, ``limit`` bytes in all, up to the end."""
    while limit > 0 and (block := read(min(_CHUNK_BYTES, limit))):
        limit -= len(block)
        yield block


def _parse_canonical_measurement(read, size: int) -> dict | None:
    """The document ``_parse_json`` gives for a measurement in the layout ``encode`` writes.

    ``read(n)`` gives the next at most n of the document's ``size`` bytes, of
    which at most ``size + 1`` are read.  The head, up to the "effects" array,
    gives the array's shape, and ``_Rows`` reads the array into a complex
    stack.  None, leaving the document to ``_parse_json``, unless ``_Rows``
    accepts the array and the head and tail, parsed with a 0 in the array's
    place, are what ``encode`` writes (or that and the newline ``save`` adds).
    """
    text = read(min(_HEAD_BYTES, size + 1))
    opening = text.find(_EFFECTS_OPENING)
    start = opening + len(_EFFECTS_OPENING) - 1  # the array's first bracket
    peek = _json_object(text[:start] + b"0}") if opening >= 0 else None
    kind, d = (peek.get("kind"), peek.get("dim")) if peek else (None, None)
    valid = isinstance(kind, str) and kind in PARAMETER_NAMES and type(d) is int and d >= 1
    # the encoder writes at least "[0.0, 0.0]" per entry, so a shorter file cannot hold the stack
    if not (valid and 10 * math.prod(shape := _effects_shape(kind, d)) <= size):
        return None
    blocks = _blocks(read, size + 1 - len(text))
    parsed = _Rows(shape).parse(text[start:], blocks)
    if parsed is None:
        return None
    spliced = text[:start] + b"0" + parsed[1] + b"".join(blocks)
    doc = _json_object(spliced)
    if doc is None:
        return None
    # equal bytes put the 0 under the one "effects" key, with no key repeated or moved
    fields = _measurement_fields(kind, d, doc.get("t"), doc.get(PARAMETER_NAMES[kind]), 0)
    canonical = {"v": doc.get("v"), **fields}
    if "meta" in doc:
        canonical["meta"] = doc["meta"]
    try:
        expected = b"".join(_document_pieces(canonical))
    except (ValueError, RecursionError):  # NaN or infinity, or deep nesting, in meta
        return None
    if spliced not in (expected, expected + b"\n"):  # the newline save appends
        return None
    doc["effects"] = parsed[0]
    return doc


class _Numbers(dict):
    """Value of each number token, parsed on first lookup, as ``json.loads`` parses it.

    A token with no fraction or exponent (an int to json.loads), or not finite, raises ValueError.
    """

    def __missing__(self, token: bytes) -> float:
        value = float(token) if re.fullmatch(_NUMBER, token) else math.nan
        if not math.isfinite(value):
            raise ValueError(f"not a finite number with a fraction or exponent: {token!r}")
        self[token] = value
        return value


class _Rows(dict):
    """Reader of an effects array of a given stored shape, in the layout the encoder writes.

    The array is cut at the row separators into pieces, one row of [re, im]
    pairs each; a piece maps to its position among the distinct pieces,
    checked and parsed on first lookup.  A piece must be a row as the
    encoder writes it, with the brackets its row's position takes.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        super().__init__()
        self.shape, self.count = shape, math.prod(shape[:-1])  # rows of the array
        self.depth = len(shape) + 1  # brackets that open the array before its first number
        # a row at a multiple of one of these starts a matrix, or a POVM, and the
        # separator before it has one more bracket on each side for each
        self.periods = np.array([math.prod(shape[j:-1]) for j in range(1, len(shape) - 1)])
        self.row_format = (b"%s, %s], [" * shape[-1])[:-4]
        self.numbers = _Numbers()
        self.brackets = []  # leading * (depth + 1) + trailing brackets of each piece
        self.new = []  # float64 bytes of the rows first seen since the last gather
        self.values = np.empty((0, shape[-1]), dtype=np.complex128)

    def __missing__(self, piece: bytes) -> int:
        key = piece.lstrip(b"[")
        stripped = key.rstrip(b"]")
        leading, trailing = len(piece) - len(key), len(key) - len(stripped)
        tokens = stripped.replace(b"], [", b", ").split(b", ")
        if (max(leading, trailing) > self.depth or len(tokens) != 2 * self.shape[-1]
                or self.row_format % tuple(tokens) != stripped):
            raise ValueError(f"not a row as the encoder writes it: {piece[:80]!r}")
        row = np.fromiter(map(self.numbers.__getitem__, tokens), dtype=np.float64, count=len(tokens))
        self.new.append(row.tobytes())
        self.brackets.append(leading * (self.depth + 1) + trailing)
        self[piece] = position = len(self)
        return position

    def gather(self, pieces: list[bytes], first: int, out: np.ndarray) -> None:
        """Write the rows ``first`` onwards, which the pieces hold, into ``out``."""
        ids = np.fromiter(map(self.__getitem__, pieces), dtype=np.intp, count=len(pieces))
        if self.new:
            parsed = np.frombuffer(b"".join(self.new), dtype=np.float64).reshape(len(self.new), -1)
            self.new = []
            # the arithmetic of _matrix_from_json, so the bits, signed zeros too, are its bits
            self.values = np.concatenate([self.values, parsed[:, 0::2] + 1j * parsed[:, 1::2]])
        rows = np.arange(first, first + len(pieces) + 1)
        extra = (rows[:, None] % self.periods == 0).sum(axis=1)
        extra[rows == 0] = self.depth
        extra[rows == self.count] = 0  # the last piece ends before the array's closing brackets
        expected = extra[:-1] * (self.depth + 1) + extra[1:]
        if not np.array_equal(np.asarray(self.brackets)[ids], expected):
            raise ValueError("row brackets out of place")
        np.take(self.values, ids, axis=0, out=out[first:first + len(pieces)], mode="clip")

    def parse(self, text: bytes, blocks):
        """The stack of the array that starts ``text`` and goes on in ``blocks``, and what follows.

        None if the array is not in the encoder's layout.  One block's rows at a time are text.
        """
        out = np.empty((self.count, self.shape[-1]), dtype=np.complex128)
        # longer than any row the encoder writes: a float's repr takes at most 24 bytes
        row_limit = 64 * self.shape[-1] + 2 * self.depth
        filled = 0
        try:
            # the last row ends where the array's closing brackets begin
            while filled < self.count - 1 or (end := text.find(b"]" * self.depth)) < 0:
                pieces = text.split(_ROW_SEPARATOR, self.count - 1 - filled)
                text = pieces.pop()
                if pieces:
                    self.gather(pieces, filled, out)
                    filled += len(pieces)
                elif len(text) > row_limit or not (block := next(blocks, b"")):
                    return None
                else:
                    text += block
            self.gather([text[:end]], filled, out)
        except ValueError:
            return None
        return out.reshape(self.shape), text[end + self.depth:]


def decode(data: bytes | str):
    """Parse and re-validate a serialized entity, from bytes as ``load`` reads a file.

    A document longer than ``MAX_DOCUMENT_BYTES`` (counted in characters for
    a str) raises SchemaError before it is parsed, as do bytes that are not
    UTF-8.  A str is read by ``json.loads``.
    """
    if isinstance(data, str):
        _check_document_size(len(data))
        return _decode_document(_parse_json(data))
    return _decode_document(_parse_file(io.BytesIO(data), len(data)))


def _parse_file(fh, size: int):
    """The document in a seekable binary file of ``size`` bytes, read up to ``size + 1`` bytes.

    A measurement in the layout ``encode`` writes is parsed as it is read;
    any other document is read again, whole, for ``json.loads``.
    """
    _check_document_size(size)
    doc = _parse_canonical_measurement(fh.read, size)
    if doc is None:
        fh.seek(0)
        doc = _parse_json(fh.read(size + 1))
    return doc


def _read_stream(read) -> tuple[io.BytesIO, int]:
    """A stream that can be read once, a pipe say, read whole in blocks into a file, and its size."""
    whole = io.BytesIO()
    for block in _blocks(read, MAX_DOCUMENT_BYTES + 1):
        whole.write(block)
    # trims the buffer in place, so that reading it whole from the start copies nothing
    whole.getvalue()
    size = whole.tell()
    whole.seek(0)
    return whole, size


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
    t, parameter = _require(doc, "t"), _require(doc, name)
    for key, value in (("t", t), (name, parameter)):  # float() would parse a numeric string
        if type(value) not in (int, float):
            raise SchemaError(f"malformed measurement document: invalid {key} {value!r}")

    try:
        t, parameter = float(t), float(parameter)
        if not (math.isfinite(t) and math.isfinite(parameter)):
            raise SchemaError(f"t and {name} must be finite numbers, got {t!r} and {parameter!r}")
        if not isinstance(effects, np.ndarray):  # the direct parse gives the checked stack
            effects = _matrix_from_json(effects, _effects_shape(kind, d))
        # a new stack, symmetrized in place: a second stack, freed before
        # verification, would leave the allocator holding as much again
        stack = hermitian(effects.reshape(-1, d, d), overwrite=True)
        del effects, doc["effects"]  # the parsed lists go before verification
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
        try:  # the arithmetic of reconcile is float arithmetic
            values[name] = value if value is None else float(value)
        except OverflowError as exc:  # a huge integer
            raise SchemaError(f"malformed report document: {exc}") from exc
    try:
        expected = reconcile(kind, d, values["parameter"], values["purity"], values["C_direct"],
                             values["V_direct"], clamped)
    except BzinfoError as exc:  # a parameter or purity out of its range
        raise SchemaError(f"decoded report fails validation: {exc}") from exc
    except OverflowError as exc:  # a dim too large for float arithmetic
        raise SchemaError(f"malformed report document: {exc}") from exc
    wrong = [name for name in _REPORT_FIELDS if values[name] != getattr(expected, name)]
    if any(name.endswith("_closed") or name in ("V_min", "V_max") for name in wrong):
        raise SchemaError("stored closed forms inconsistent with kind, dim, parameter and purity")
    if wrong:
        raise SchemaError(f"stored {wrong[0]} inconsistent with fields")
    return expected


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
    """Write the bytes ``encode`` gives and a newline to ``path``, a block at a time."""
    with open(path, "wb") as fh:
        dump(entity, fh.write, meta)


def load(path):
    """The entity a file holds, as ``decode`` gives it for the file's bytes.

    A regular file is checked against ``MAX_DOCUMENT_BYTES`` by its size and
    read as ``_parse_file`` does; any other, a pipe say, is first read whole
    in blocks.  The text is dropped before the entity is validated.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            doc = _parse_file(fh, info.st_size)
        else:
            doc = _parse_file(*_read_stream(fh.read))
    return _decode_document(doc)
