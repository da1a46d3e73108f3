"""Lossless JSON persistence for states, measurements, reports and counts.

Numbers are emitted with Python's shortest round-trip float repr, complex
entries as [re, im] pairs in row-major order.  Every document carries the
schema version field "v": 1 and a "schema" discriminator.  Decoding
checks each document's format, so a tampered or truncated file never
yields a malformed object: a state must be a density matrix, and a
measurement's effects finite, of its kind's shape and Hermitian within
``linalg.TOL_HERM``.  Whether a family meets its defining conditions is
not decoding's question: ``measurements.verify`` judges it, once, in the
verb that uses the family.  A report is rebuilt from its direct inputs by
``invariants.reconcile``, which makes every report, and must equal the
stored fields exactly.

A family repeats a few thousand distinct rows of [re, im] pairs across
hundreds of thousands of entries.  So a matrix is written as pieces of
about ``_CHUNK_BYTES``, made one at a time: runs of rows, each row's text
taken from a memo of the recent rows' texts, formatted from a memo of the
recent floats' words, with the array's brackets and separators; ``encode``
joins them, ``save`` writes them as they come.  A family's file holds its
complex effects under "effects"; the encoder unpacks its packed rows a run
of whole matrices at a time.  A measurement file in exactly that layout is
read back in blocks cut at the row separators, each recent distinct row
checked and parsed once, its numbers from a memo of the recent tokens'
values, and gathered into a buffer of whole matrices, which is
symmetrized and packed into the family's rows a block at a time.  Each
of these caches is a ``_Memo``, which clears itself once it holds its
limit: ``_ROW_CACHE_ROWS`` rows (the encoder's texts at most four runs of
rows, for wide rows), or eight times as many words or tokens, more than
the distinct floats of any family the builders make.  So beside the matrix
none grows with the values it reads, nor with a row's width, for a family
or a state.  Any other JSON document is read whole by ``json.loads``, with
the same entity or SchemaError.  So the whole text is held only on that
route, and only there does the text limit ``MAX_DOCUMENT_BYTES`` apply: a
file in the encoder's layout may be longer, its limit the builders' limit
on its family, ``MAX_DENSE_BYTES``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import re
import stat
import struct

import numpy as np

from .errors import BzinfoError, DomainError, SchemaError
from .invariants import REPORT_KINDS, BzReport, reconcile
from .linalg import BLOCK_BYTES, COMPLEX_BYTES, _frozen, check_dense_bytes, hermitian, pack, unpack
from .measurements import PARAMETER_NAMES, Family, family_bytes, layout
from .sampler import MAX_SHOTS, CountTable
from .states import TRACE_TOL, validate_state

SCHEMA_VERSION = 1
# longest document decode holds whole; a d=32 general SIC file is about 50 MB
MAX_DOCUMENT_BYTES = 256 * 2**20

# bytes per block that save writes and the direct parse reads
_CHUNK_BYTES = 2**18
# distinct rows of pairs whose text the encoder, and whose value the direct
# parse, keeps at once; a family repeats a few thousand distinct rows, and
# eight times as many words or tokens cover mum d=75's 3005 distinct floats
_ROW_CACHE_ROWS = 512
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


class _Memo(dict):
    """``make(key)`` for each key looked up, made on its first lookup.

    The memo clears itself when it holds ``limit`` entries, so it holds at
    most that many whatever it reads.  ``make`` may raise; nothing is kept then.
    """

    def __init__(self, make, limit: int) -> None:
        super().__init__()
        self.make, self.limit = make, limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        self[key] = value = self.make(key)
        return value


def _word(bits: int) -> bytes:
    """The shortest repr of the float64 with these bits (so -0.0 keeps its own word).

    A non-finite value raises the ValueError ``json.dumps`` raises for it.
    """
    value = struct.unpack("=d", struct.pack("=Q", bits))[0]
    if not math.isfinite(value):
        json.dumps(value, allow_nan=False)
    return repr(value).encode("ascii")


def _opened(shape: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """How many arrays, below the outermost, each of these rows of an array of this shape begins.

    A row is a last-axis vector, numbered in row-major order.  Row r begins
    an array at each level (a matrix, say, or a POVM) whose row count
    divides r, and the separator before it closes and opens one bracket
    for each; the encoder writes, and the direct parse checks, that rule.
    """
    periods = np.array([math.prod(shape[j:-1]) for j in range(1, len(shape) - 1)], dtype=np.intp)
    return (rows[:, None] % periods == 0).sum(axis=1)


def _matrix_pieces(m):
    """Pieces of the JSON text of a matrix or a stack of them, or of a family's effects, as [re, im] pairs.

    Joined, the pieces are the ASCII bytes of ``json.dumps(np.stack([m.real,
    m.imag], -1).tolist(), allow_nan=False)``, the first non-finite entry
    raising its ValueError; for a ``Family`` m, those of its unpacked
    effects in their stored shape (``_effects_shape``).  Each piece is a run
    of rows of pairs and the separators before them, at most about
    ``_CHUNK_BYTES`` long; a family's runs are of whole matrices, at least
    one, each unpacked as it is formatted.  A row's text comes from a
    ``_Memo`` of the recent rows' texts, at most four runs' worth, formatted
    from a ``_Memo`` of the recent floats' words; a run's separators, which
    close and open a bracket for each matrix (and each POVM) that a row
    begins, come from its row numbers.  So what the pieces hold beside the
    matrix does not grow with it, nor with its values.
    """
    if isinstance(m, Family):
        shape, d = _effects_shape(m.kind, m.dim), m.dim

        def run(start: int, stop: int) -> np.ndarray:
            return unpack(m.rows[start // d:stop // d], d)
    else:
        entries = np.ascontiguousarray(m, dtype=np.complex128)
        shape = m.shape
        if entries.size == 0:
            yield _skeleton((*shape, 2), "").encode("ascii")
            return

        def run(start: int, stop: int) -> np.ndarray:
            return entries.reshape(-1, shape[-1])[start:stop]
    count = math.prod(shape[:-1])  # rows of pairs
    width = COMPLEX_BYTES * shape[-1]  # bytes of one row of pairs
    depth = len(shape) - 1  # brackets around the rows
    separators = [b"]" * k + b", " + b"[" * k for k in range(len(shape))]
    row_format = _skeleton((shape[-1], 2), "%s").encode("ascii")
    bits = struct.Struct(f"={2 * shape[-1]}Q").unpack
    # a float's repr takes at most 24 bytes, so a run's text is at most about _CHUNK_BYTES
    step = max(1, _CHUNK_BYTES // (54 * shape[-1]))
    if isinstance(m, Family):
        step = max(d, step - step % d)
    words = _Memo(_word, 8 * _ROW_CACHE_ROWS)
    texts = _Memo(lambda row: row_format % tuple(map(words.__getitem__, bits(row))),
                  min(_ROW_CACHE_ROWS, 4 * step))
    for start in range(0, count, step):
        size = min(step, count - start)
        opened = _opened(shape, np.arange(start, start + size))
        pieces = [b""] * (2 * size)
        pieces[0::2] = map(separators.__getitem__, opened.tolist())
        if start == 0:
            pieces[0] = b"[" * depth
        # each row's bytes, as one void item
        pieces[1::2] = map(texts.__getitem__, run(start, start + size).view(f"V{width}").ravel().tolist())
        if start + size == count:
            pieces.append(b"]" * depth)
        yield b"".join(pieces)


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


def _encode_state(rho: np.ndarray) -> dict:
    """A state's fields; a SchemaError unless it is a (d, d) array, d >= 1, of trace 1 within ``TRACE_TOL``.

    Only the shape and the trace, O(d), are checked here.  Hermiticity and
    positivity are ``decode``'s checks: here they would hold a second
    matrix, or run an eigensolve, beside the largest state ``state gen``
    makes.  So an array of unit trace that is no state encodes, and
    ``decode`` refuses its file.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 1:
        raise SchemaError(f"a state is a (d, d) array with d >= 1, got shape {rho.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float64 limit is a trace of inf
        tr = np.trace(rho)
    if abs(tr - 1.0) >= TRACE_TOL:
        raise SchemaError(f"state trace is {tr.real.item()!r}, not 1 within {TRACE_TOL:.0e}")
    return {"schema": "state", "dim": rho.shape[0], "rho": rho}


def _effects_shape(kind: str, d: int) -> tuple[int, ...]:
    """Stored shape of a family's effects: one list per POVM, unless the family is one POVM."""
    povms, outcomes = layout(kind, d)
    return (povms, outcomes, d, d) if povms > 1 else (outcomes, d, d)


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
    # the family stands for its effects, which _matrix_pieces unpacks as it writes them
    return _measurement_fields(family.kind, family.dim, family.t, family.parameter, family)


def _encode_report(report: BzReport) -> dict:
    values = {name: getattr(report, name) for name in _REPORT_FIELDS}
    if any(np.ndim(value) for value in values.values()):
        raise SchemaError("cannot encode the report of a batch of states; encode each row")
    return {"schema": "report", **values}


def _encode_counts(table: CountTable) -> dict:
    return {
        "schema": "counts",
        "shots": table.shots_per_povm,
        "counts": table.counts.tolist(),
    }


_ENCODERS = {
    np.ndarray: _encode_state,
    Family: _encode_measurement,
    BzReport: _encode_report,
    CountTable: _encode_counts,
}


def _document(entity, meta: dict | None) -> dict:
    """The fields of an entity's document in order, matrices as complex arrays or a ``Family``."""
    encoder = _ENCODERS.get(type(entity))
    if encoder is None:
        raise SchemaError(f"cannot encode object of type {type(entity).__name__}")
    doc = {"v": SCHEMA_VERSION, **encoder(entity)}
    if meta is not None:
        doc["meta"] = meta
    return doc


def _document_pieces(doc: dict):
    """Pieces of the document's text: its fields in order, with the bytes ``json.dumps`` gives."""
    yield b"{"
    for i, (key, value) in enumerate(doc.items()):
        yield f"{', ' if i else ''}{json.dumps(key)}: ".encode("ascii")
        if isinstance(value, (np.ndarray, Family)):
            yield from _matrix_pieces(value)
        else:
            yield json.dumps(value, allow_nan=False).encode("ascii")
    yield b"}"


def encode(entity, meta: dict | None = None) -> bytes:
    """The JSON bytes ``json.dumps`` gives for an entity's document, with nested [re, im] lists."""
    return b"".join(_document_pieces(_document(entity, meta)))


def dump(entity, write, meta: dict | None = None) -> None:
    """Write the bytes ``encode`` gives and a newline, one ``write`` per piece as the pieces are made.

    A matrix's pieces are runs of rows of about ``_CHUNK_BYTES``, so the
    text is never held whole; a non-finite entry raises json's ValueError
    after the runs before it are written.
    """
    for piece in _document_pieces(_document(entity, meta)):
        write(piece)
    write(b"\n")


def _check_document_size(size: int) -> None:
    if size > MAX_DOCUMENT_BYTES:
        raise SchemaError(
            f"document is {size} bytes long, above the limit of {MAX_DOCUMENT_BYTES} bytes"
        )


def _parse_json(data: bytes):
    """The document as ``json.loads`` reads the UTF-8 text ``data``."""
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
    """Blocks of at most ``_CHUNK_BYTES`` from ``read``, ``limit`` bytes in all, up to the end.

    No block is kept here once it is yielded.
    """
    while limit > 0 and (block := [read(min(_CHUNK_BYTES, limit))])[0]:
        limit -= len(block[0])
        yield block.pop()


def _parse_canonical_measurement(read, size: int) -> dict | None:
    """The document ``_parse_json`` gives for a measurement in the layout ``encode`` writes.

    ``read(n)`` gives the next at most n of the document's ``size`` bytes, of
    which at most ``size + 1`` are read.  The head, up to the "effects" array,
    gives the array's shape, and ``_Rows`` reads the array into the
    family's packed rows.  None, leaving the document to ``_parse_json``, unless ``_Rows``
    accepts the array and the head and tail, parsed with a 0 in the array's
    place, are what ``encode`` writes (or that and the newline ``save`` adds)
    and at most ``MAX_DOCUMENT_BYTES`` long.  A head whose family the
    builders would refuse as too large raises SchemaError before the rows
    are allocated.  The effects of the document returned are the rows, or
    the DomainError ``hermitian`` raised on them, which ``_decode_measurement``
    raises where it would check the effects read by ``json.loads``.
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
    try:
        check_dense_bytes(family_bytes(kind, d), f"a {kind} family of dimension {d}")
    except DomainError as exc:
        raise SchemaError(str(exc)) from exc
    blocks = _blocks(read, size + 1 - len(text))
    parsed = _Rows(shape).parse(text[start:], blocks)
    if parsed is None:
        return None
    # json.loads holds the text around the array whole; blocks are full up to
    # the end, so taking one more than the limit's worth shows a longer tail
    tail = itertools.islice(blocks, MAX_DOCUMENT_BYTES // _CHUNK_BYTES + 1)
    spliced = text[:start] + b"0" + parsed[1] + b"".join(tail)
    doc = _json_object(spliced) if len(spliced) <= MAX_DOCUMENT_BYTES else None
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


def _number(token: bytes) -> float:
    """The value of a number token as ``json.loads`` parses it.

    A token with no fraction or exponent (an int to json.loads), or not finite, raises ValueError.
    """
    value = float(token) if re.fullmatch(_NUMBER, token) else math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite number with a fraction or exponent: {token!r}")
    return value


class _Rows:
    """Reader of an effects array of a given stored shape, in the layout the encoder writes.

    The array is cut at the row separators into pieces, one row of [re, im]
    pairs each.  A piece must be a row as the encoder writes it, with the
    brackets its row's position takes.  Each recent distinct piece is
    checked and parsed once, into the float64 bytes of its numbers followed
    by its bracket code, leading * (depth + 1) + trailing brackets.  The
    rows are gathered into a buffer of whole matrices, the block that
    ``hermitian`` checks at a time, and each full block is symmetrized and
    packed; so the checks and their first failure are those of ``hermitian``
    on the whole stack.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape, self.count = shape, math.prod(shape[:-1])  # rows of the array
        self.depth = len(shape) + 1  # brackets that open the array before its first number
        self.row_format = (b"%s, %s], [" * shape[-1])[:-4]
        self.entry = struct.Struct(f"={2 * shape[-1] + 1}d").pack
        self.numbers = _Memo(_number, 8 * _ROW_CACHE_ROWS)
        d = shape[-1]
        self.step = max(1, BLOCK_BYTES // (COMPLEX_BYTES * d * d)) * d  # rows of a block

    def _entry(self, piece: bytes) -> bytes:
        key = piece.lstrip(b"[")
        stripped = key.rstrip(b"]")
        leading, trailing = len(piece) - len(key), len(key) - len(stripped)
        tokens = stripped.replace(b"], [", b", ").split(b", ")
        if (max(leading, trailing) > self.depth or len(tokens) != 2 * self.shape[-1]
                or self.row_format % tuple(tokens) != stripped):
            raise ValueError(f"not a row as the encoder writes it: {piece[:80]!r}")
        code = leading * (self.depth + 1) + trailing
        return self.entry(*map(self.numbers.__getitem__, tokens), code)

    def gather(self, joined: bytes, first: int) -> None:
        """Write the rows ``first`` onwards, from their pieces' entries joined, and pack each full block."""
        entries = np.frombuffer(joined, dtype=np.float64).reshape(-1, 2 * self.shape[-1] + 1)
        rows = np.arange(first, first + len(entries) + 1)
        extra = _opened(self.shape, rows)
        extra[rows == 0] = self.depth
        extra[rows == self.count] = 0  # the last piece ends before the array's closing brackets
        if not np.array_equal(entries[:, -1], extra[:-1] * (self.depth + 1) + extra[1:]):
            raise ValueError("row brackets out of place")
        done = 0
        while done < len(entries):
            at = (first + done) % self.step
            n = min(len(entries) - done, self.step - at)
            # re + 1j * im, the arithmetic of _matrix_from_json: its bits, signed zeros too
            part, values = self.block[at:at + n], entries[done:done + n]
            np.multiply(1j, values[:, 1:-1:2], out=part)
            np.add(values[:, 0:-1:2], part, out=part)
            done += n
            if at + n == self.step or first + done == self.count:
                self._pack((first + done - at - n) // self.shape[-1], at + n)

    def _pack(self, matrix: int, used: int) -> None:
        """Symmetrize the block's first ``used`` rows, whole matrices from ``matrix`` on, and pack them.

        After ``hermitian`` raises, no block is packed and the parse goes on
        to check the layout.
        """
        if self.failure is None:
            d = self.shape[-1]
            stack = self.block[:used].reshape(-1, d, d)
            try:
                hermitian(stack, overwrite=True, first=matrix)
            except DomainError as exc:
                self.failure = exc
            else:
                pack(stack, out=self.rows[matrix:matrix + len(stack)])

    def parse(self, text: bytes, blocks):
        """The packed rows of the array that starts ``text`` and goes on in ``blocks``, and what follows.

        None if the array is not in the encoder's layout.  One block's rows
        at a time are text.  In place of the rows comes the DomainError of
        ``hermitian`` if a matrix is not Hermitian or too large to symmetrize.
        """
        d = self.shape[-1]
        self.rows = np.empty((self.count // d, d * d))
        self.block = np.empty((min(self.step, self.count), d), dtype=np.complex128)
        self.failure = None
        # kept here, not on the reader, whose method it holds, so that no
        # reference cycle keeps the recent rows after the parse; an entry
        # keeps a row's text and its numbers, so half as many rows as the
        # encoder's texts (which kept a d=24 load at 0.77-0.80 of the complex
        # stack, against 0.72-0.73, and took no less time)
        entries = _Memo(self._entry, max(1, _ROW_CACHE_ROWS // 2))
        # longer than any row the encoder writes: a float's repr takes at most 24 bytes
        row_limit = 64 * self.shape[-1] + 2 * self.depth
        filled = 0
        try:
            # the last row ends where the array's closing brackets begin
            while filled < self.count - 1 or (end := text.find(b"]" * self.depth)) < 0:
                pieces = text.split(_ROW_SEPARATOR, self.count - 1 - filled)
                text = pieces.pop()
                if pieces:
                    # the pieces are dropped before their entries are gathered
                    joined, count = b"".join(map(entries.__getitem__, pieces)), len(pieces)
                    del pieces
                    self.gather(joined, filled)
                    filled += count
                elif len(text) > row_limit:
                    return None
                else:
                    length = len(text)
                    text += next(blocks, b"")
                    if len(text) == length:
                        return None
            self.gather(entries[text[:end]], filled)
        except ValueError:
            return None
        return self.failure or self.rows, text[end + self.depth:]


def decode(data: bytes | str):
    """Parse a serialized entity and check its format, from bytes as ``load`` reads a file.

    A str is read as its UTF-8 bytes.  A document longer than
    ``MAX_DOCUMENT_BYTES`` bytes raises SchemaError before ``json.loads``
    reads it, as do bytes that are not UTF-8 (a lone surrogate in a str);
    a measurement in the layout ``encode`` writes is parsed as
    ``_parse_file`` parses it, at any length.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return _decode_document(_parse_file(io.BytesIO(data), len(data)))


def _parse_file(fh, size: int):
    """The document in a seekable binary file of ``size`` bytes, read up to ``size + 1`` bytes.

    A measurement in the layout ``encode`` writes is parsed as it is read,
    never held whole, so its limit is the builders' limit on its family,
    whatever the file's size.  Any other document is held whole by
    ``json.loads``: it must be at most ``MAX_DOCUMENT_BYTES`` long, and is
    read again from the start.
    """
    doc = _parse_canonical_measurement(fh.read, size)
    if doc is None:
        _check_document_size(size)
        fh.seek(0)
        doc = _parse_json(fh.read(size + 1))
    return doc


def _read_stream(read) -> tuple[io.BytesIO, int]:
    """A stream that can be read once, a pipe say, read whole in blocks into a file, and its size.

    The stream is held whole, so it must be at most ``MAX_DOCUMENT_BYTES`` long.
    """
    whole = io.BytesIO()
    for block in _blocks(read, MAX_DOCUMENT_BYTES + 1):
        whole.write(block)
    # trims the buffer in place, so that reading it whole from the start copies nothing
    whole.getvalue()
    size = whole.tell()
    _check_document_size(size)
    whole.seek(0)
    return whole, size


def _decode_document(doc):
    """The entity a parsed document describes, its format checked."""
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


def _integer(key: str, value, least: int) -> int:
    """The field ``key``'s value, checked to be a JSON integer of at least ``least``."""
    # JSON integers only: bool is an int subclass, and int64 would truncate floats
    if type(value) is not int or value < least:
        raise SchemaError(f"invalid {key} {value!r}")
    return value


def _decode_state(doc: dict) -> np.ndarray:
    d = _integer("dim", _require(doc, "dim"), 1)
    rho = _matrix_from_json(_require(doc, "rho"), (d, d))
    try:
        return validate_state(rho)
    except BzinfoError as exc:
        raise SchemaError(f"decoded state fails validation: {exc}") from exc


def _decode_measurement(doc: dict):
    kind = _require(doc, "kind")
    d = _integer("dim", _require(doc, "dim"), 2)
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
        if isinstance(effects, DomainError):  # the direct parse's first failure, raised here
            raise effects
        if not isinstance(effects, np.ndarray):  # the direct parse gives the checked rows
            stack = _matrix_from_json(effects, _effects_shape(kind, d)).reshape(-1, d, d)
            effects = pack(hermitian(stack, overwrite=True))
        return Family(kind=kind, dim=d, t=t, parameter=parameter, rows=_frozen(effects))
    except SchemaError:
        raise
    except BzinfoError as exc:
        raise SchemaError(f"decoded measurement fails validation: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge integer overflows
        raise SchemaError(f"malformed measurement document: {exc}") from exc


def _decode_report(doc: dict) -> BzReport:
    values = {name: _require(doc, name) for name in _REPORT_FIELDS}
    # json.loads reads NaN, Infinity and overlong exponents as non-finite floats
    non_finite = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    if non_finite:
        raise SchemaError(f"report fields must be finite numbers: {', '.join(non_finite)}")
    # every report is of a family, and a family has d >= 2
    d, kind = _integer("dim", values["dim"], 2), values["kind"]
    if kind not in REPORT_KINDS:
        raise SchemaError(f"unknown report kind {kind!r}")
    clamped = _integer("negatives_clamped", values["negatives_clamped"], 0)
    for name in _REPORT_FIELDS[2:-1]:  # "parameter" to "max_abs_discrepancy": numbers
        value = values[name]
        if type(value) not in (int, float):
            raise SchemaError(f"malformed report document: invalid {name} {value!r}")
        try:  # the arithmetic of reconcile is float arithmetic
            values[name] = float(value)
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
    if _integer("shots", shots, 1) > MAX_SHOTS:  # more than a sampler draws
        raise SchemaError(f"shots {shots} above the limit of {MAX_SHOTS}")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("counts must be a non-empty list of rows")
    if any(not isinstance(row, list) or any(type(c) is not int for c in row) for row in rows):
        raise SchemaError("counts rows must be lists of integers")
    if len({len(row) for row in rows}) > 1:
        raise SchemaError("counts rows must all have the same length")
    try:
        counts = np.array(rows, dtype=np.int64)
    except OverflowError as exc:
        raise SchemaError(f"counts rows must be integers: {exc}") from exc
    if counts.size == 0 or counts.min() < 0:
        raise SchemaError("counts rows must be nonnegative integers")
    for total in map(sum, rows):  # Python ints: an int64 sum could wrap
        if total != shots:
            raise SchemaError(f"row sums to {total}, expected {shots}")
    counts.setflags(write=False)
    return CountTable(shots_per_povm=shots, counts=counts)


def save(entity, path, meta: dict | None = None) -> None:
    """Write the bytes ``encode`` gives and a newline to ``path``, a block at a time."""
    with open(path, "wb") as fh:
        dump(entity, fh.write, meta)


def load(path):
    """The entity a file holds, as ``decode`` gives it for the file's bytes.

    A regular file is read as ``_parse_file`` reads it, its size known from
    the file system; any other, a pipe say, is first read whole in blocks,
    up to ``MAX_DOCUMENT_BYTES``.  The text is dropped before the entity is
    built.  A family comes back unverified, for the caller to judge with
    ``verify``.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            doc = _parse_file(fh, info.st_size)
        else:
            doc = _parse_file(*_read_stream(fh.read))
    return _decode_document(doc)
