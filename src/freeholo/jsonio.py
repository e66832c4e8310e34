"""File-level JSON loading with schema validation for the CLI.

All value types know how to serialize themselves; this module adds the file
plumbing and converts malformed payloads (a decoder's :class:`ShapeMismatch`
included) into :class:`SchemaError` so the command line can distinguish bad
input (exit 2) from mathematical failure (exit 1).
"""

from __future__ import annotations

import importlib
import json

from .errors import FreeholoError, SchemaError, ShapeMismatch

SCHEMA_VERSION = "freeholo/1"

# Layout contract for every tensor product in the package: the level index
# is the outermost factor, then the multiplicity, then the grid index, and
# promoted blocks act as kron(I_n, block).
TENSOR_CONVENTION = "level-outer/mult-mid/grid-inner v1"

# "module:attribute" of each decoder, imported on the first decode of its
# kind, so reading a point loads no realization or sample-set code
_DECODERS = {
    "cmatrix": "mat:matrix_from_json",
    "freepoly": "freepoly:FreePoly.from_json",
    "polymatrix": "freepoly:PolyMatrix.from_json",
    "gradedpoint": "freepoly:GradedPoint.from_json",
    "matrixpoly": "freepoly:MatrixPoly.from_json",
    "realization": "realize:Realization.from_json",
    "modelsamples": "model:ModelSampleSet.from_json",
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
    if isinstance(decoder, str):
        module, attr = decoder.split(":")
        decoder = importlib.import_module(f".{module}", __package__)
        for part in attr.split("."):
            decoder = getattr(decoder, part)
        _DECODERS[kind] = decoder
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
