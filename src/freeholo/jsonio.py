"""File-level JSON loading with schema validation for the CLI.

All value types know how to serialize themselves; this module adds the file
plumbing and converts malformed payloads (a decoder's :class:`ShapeMismatch`
included) into :class:`SchemaError` so the command line can distinguish bad
input (exit 2) from mathematical failure (exit 1).
"""

from __future__ import annotations

import json

from .errors import FreeholoError, SchemaError, ShapeMismatch
from .freepoly import FreePoly, GradedPoint, MatrixPoly, PolyMatrix
from .mat import matrix_from_json
from .model import ModelSampleSet
from .realize import Realization

SCHEMA_VERSION = "freeholo/1"

_DECODERS = {
    "cmatrix": matrix_from_json,
    "freepoly": FreePoly.from_json,
    "polymatrix": PolyMatrix.from_json,
    "gradedpoint": GradedPoint.from_json,
    "matrixpoly": MatrixPoly.from_json,
    "realization": Realization.from_json,
    "modelsamples": ModelSampleSet.from_json,
}


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read JSON from {path}: {exc}") from exc


def decode(kind: str, obj):
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise SchemaError(f"unknown payload kind {kind!r}")
    try:
        return decoder(obj)
    except ShapeMismatch as exc:
        raise SchemaError(str(exc)) from exc
    except FreeholoError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed {kind} payload: {exc}") from exc


def load(kind: str, path: str):
    return decode(kind, load_json(path))


def load_list(kind: str, path: str):
    payload = load_json(path)
    if not isinstance(payload, list):
        raise SchemaError(f"{path} must hold a JSON array of {kind} objects")
    return [decode(kind, item) for item in payload]
