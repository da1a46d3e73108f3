"""Lossless JSON persistence for states, measurements, reports and counts.

Numbers are emitted with Python's shortest round-trip float repr, complex
entries as [re, im] pairs in row-major order.  Every document carries the
schema version field "v": 1 and a "schema" discriminator.  Decoding
re-validates the entity, so a tampered or truncated file never yields a
usable object, and a document longer than ``MAX_DOCUMENT_BYTES`` is
rejected before it is read whole or parsed.

A built family repeats a few hundred distinct values across hundreds of
thousands of entries, so matrices are written by formatting each distinct
float once and gathering the words, without building nested Python lists;
the bytes equal ``json.dumps`` of the nested [re, im] lists.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os

import numpy as np

from .errors import BzinfoError, SchemaError
from .invariants import BzReport
from .linalg import hermitian
from .measurements import MUM_KINDS, PARAMETER_NAMES, Family, verify
from .sampler import CountTable
from .states import DensityMatrix, validate_state

SCHEMA_VERSION = 1
# longest document decode accepts; a d=32 general SIC file is about 50 MB
MAX_DOCUMENT_BYTES = 256 * 2**20
PARAMETER_TOL = 1e-9
CONDITION_TOL = 1e-10

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


def _matrix_to_json(m: np.ndarray) -> str:
    """JSON text of a matrix or a stack of them, as nested [re, im] pairs.

    The text equals ``json.dumps(np.stack([m.real, m.imag], -1).tolist(),
    allow_nan=False)``, non-finite entries raising its ValueError, but each
    distinct float bit pattern is formatted only once.
    """
    pairs = np.stack([m.real, m.imag], axis=-1)
    flat = pairs.reshape(-1)
    if not flat.size:
        return json.dumps(pairs.tolist())
    finite = np.isfinite(flat)
    if not finite.all():
        json.dumps(float(flat[~finite][0]), allow_nan=False)  # raises json's ValueError
    # bit patterns, not values, so that -0.0 keeps its own word
    distinct, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    words = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    # closes[i]: axes that roll over between flat entries i and i + 1
    after = np.arange(1, flat.size)
    closes = np.zeros(flat.size - 1, dtype=np.intp)
    block = 1
    for size in pairs.shape[:0:-1]:
        block *= size
        closes += after % block == 0
    separators = np.array(["]" * k + ", " + "[" * k for k in range(pairs.ndim)], dtype=object)
    tokens = np.empty(2 * flat.size - 1, dtype=object)
    tokens[0::2] = words[inverse]
    tokens[1::2] = separators[closes]
    return "[" * pairs.ndim + "".join(tokens.tolist()) + "]" * pairs.ndim


def _matrix_from_json(rows, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array of the given shape from nested lists of [re, im] pairs."""
    try:
        a = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"matrix entries are not [re, im] numbers: {exc}") from exc
    if a.shape != (*shape, 2):
        raise SchemaError(f"expected shape {shape} of [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def _encode_state(rho: DensityMatrix) -> dict:
    return {"schema": "state", "dim": rho.dim, "rho": rho.matrix}


def _effects_shape(kind: str, d: int) -> tuple[int, ...]:
    """Stored shape of a family's effects: MUM-like kinds nest one list per POVM."""
    return (d + 1, d, d, d) if kind in MUM_KINDS else (d * d, d, d)


def _encode_measurement(family: Family) -> dict:
    return {
        "schema": "measurement",
        "kind": family.kind,
        "dim": family.dim,
        "t": family.t,
        PARAMETER_NAMES[family.kind]: family.parameter,
        "effects": family.effects.reshape(_effects_shape(family.kind, family.dim)),
    }


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


def _value_json(value) -> str:
    if isinstance(value, np.ndarray):
        return _matrix_to_json(value)
    return json.dumps(value, allow_nan=False)


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
    fields = ", ".join(f"{json.dumps(key)}: {_value_json(value)}" for key, value in doc.items())
    return ("{" + fields + "}").encode("utf-8")


def _check_document_size(size: int) -> None:
    if size > MAX_DOCUMENT_BYTES:
        raise SchemaError(
            f"document is {size} bytes long, above the limit of {MAX_DOCUMENT_BYTES} bytes"
        )


def decode(data: bytes | str):
    """Parse and re-validate a serialized entity.

    A document longer than ``MAX_DOCUMENT_BYTES`` (counted in characters for
    a str) raises SchemaError before it is parsed.
    """
    _check_document_size(len(data))
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        with _gc_paused():
            doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
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
    if schema not in decoders:
        raise SchemaError(f"unknown schema {schema!r}")
    return decoders[schema](doc)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    return doc[key]


def _decode_state(doc: dict) -> DensityMatrix:
    d = _require(doc, "dim")
    if not isinstance(d, int) or d < 1:
        raise SchemaError(f"invalid dim {d!r}")
    rho = _matrix_from_json(_require(doc, "rho"), (d, d))
    try:
        return validate_state(rho)
    except BzinfoError as exc:
        raise SchemaError(f"decoded state fails validation: {exc}") from exc


def _decode_measurement(doc: dict):
    kind = _require(doc, "kind")
    d = _require(doc, "dim")
    if not isinstance(d, int) or d < 2:
        raise SchemaError(f"invalid dim {d!r}")
    effects = _require(doc, "effects")
    if not isinstance(kind, str) or kind not in PARAMETER_NAMES:
        raise SchemaError(f"unknown measurement kind {kind!r}")
    name = PARAMETER_NAMES[kind]

    try:
        t = float(_require(doc, "t"))
        parameter = float(_require(doc, name))
        stack = hermitian(_matrix_from_json(effects, _effects_shape(kind, d)).reshape(-1, d, d))
        stack.setflags(write=False)
        family = Family(kind=kind, dim=d, t=t, parameter=parameter, effects=stack)
    except SchemaError:
        raise
    except BzinfoError as exc:
        raise SchemaError(f"decoded measurement fails validation: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed measurement document: {exc}") from exc

    report = verify(family, CONDITION_TOL)
    parameter_dev = report.deviations.pop("parameter")
    if parameter_dev >= PARAMETER_TOL:
        raise SchemaError(
            f"stored {name} inconsistent with t (deviation {parameter_dev:.3e})"
        )
    bad = [key for key, v in report.deviations.items() if v >= CONDITION_TOL]
    if bad:
        raise SchemaError(f"decoded measurement violates: {', '.join(bad)}")
    return family


def _decode_report(doc: dict) -> BzReport:
    values = {name: _require(doc, name) for name in _REPORT_FIELDS}
    try:
        report = BzReport(**values)
        pairs = [
            (report.V_direct, report.V_closed),
            (report.I_direct, report.I_closed),
            (report.U_direct, report.U_closed),
        ]
        if report.C_direct is not None:
            pairs.append((report.C_direct, report.C_closed))
        recomputed = max(abs(x - y) for x, y in pairs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed report document: {exc}") from exc
    if abs(recomputed - report.max_abs_discrepancy) > 1e-15:
        raise SchemaError("stored max_abs_discrepancy inconsistent with fields")
    return report


def _decode_counts(doc: dict) -> CountTable:
    shots = _require(doc, "shots")
    rows = _require(doc, "counts")
    if not isinstance(shots, int) or shots < 1:
        raise SchemaError(f"invalid shots {shots!r}")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("counts must be a non-empty list of rows")
    decoded = []
    for row in rows:
        try:
            counts = np.asarray(row, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"counts rows must be integers: {exc}") from exc
        if counts.ndim != 1 or counts.size == 0 or counts.min() < 0:
            raise SchemaError("counts rows must be nonnegative integers")
        if int(counts.sum()) != shots:
            raise SchemaError(f"row sums to {int(counts.sum())}, expected {shots}")
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
