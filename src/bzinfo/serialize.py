"""Lossless JSON persistence for states, measurements, reports and counts.

Numbers are emitted with Python's shortest round-trip float repr, complex
entries as [re, im] pairs in row-major order.  Every document carries the
schema version field "v": 1 and a "schema" discriminator.  Decoding
re-validates the entity, so a tampered or truncated file never yields a
usable object.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import BzinfoError, SchemaError
from .invariants import BzReport
from .linalg import hermitian
from .measurements import MUM_KINDS, PARAMETER_NAMES, Family, verify
from .sampler import CountTable
from .states import DensityMatrix, validate_state

SCHEMA_VERSION = 1
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


def _matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats for a matrix or a stack of them."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


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
    return {"schema": "state", "dim": rho.dim, "rho": _matrix_to_json(rho.matrix)}


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
        "effects": _matrix_to_json(family.effects.reshape(_effects_shape(family.kind, family.dim))),
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


def encode(entity, meta: dict | None = None) -> bytes:
    """Serialize an entity to JSON bytes."""
    encoder = _ENCODERS.get(type(entity))
    if encoder is None:
        raise SchemaError(f"cannot encode object of type {type(entity).__name__}")
    doc = {"v": SCHEMA_VERSION, **encoder(entity)}
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def decode(data: bytes | str):
    """Parse and re-validate a serialized entity."""
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
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
        return decode(fh.read())
