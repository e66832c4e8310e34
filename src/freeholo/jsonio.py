"""JSON files for the CLI: schema-validated loading and the report writer.

All value types know how to serialize themselves; this module adds the file
plumbing and converts malformed payloads (a decoder's :class:`ShapeMismatch`
included) into :class:`SchemaError` so the command line can distinguish bad
input (exit 2) from mathematical failure (exit 1).

:func:`dumps` writes every report: the text of ``json.dumps(value,
indent=2, sort_keys=True, allow_nan=False)``, whose indented encoding runs
in pure Python, from one template per list of matrix entries.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
from json.encoder import encode_basestring_ascii as _quoted

from .errors import FreeholoError, SchemaError, ShapeMismatch
from .mat import json_pair_template

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


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)``, byte
    for byte, for dicts whose keys are str (reports have no other keys; any
    other raises ``TypeError``). A value with a ``json_text(depth)`` method,
    such as a ``MatrixPoly``, is written by it at ``depth`` levels of indent.

    Dicts, lists and tuples are walked in Python; a list of ``[re, im]``
    float pairs, which is what :func:`mat.matrix_to_json` data holds, is
    one ``%`` format of :func:`mat.json_pair_template`. As with
    ``json.dumps``, a NaN or infinite float raises ``ValueError`` and a value
    of any other type ``TypeError``.
    """
    return _text(value, 0)


def _text(v, depth: int) -> str:
    # the type tests of json's encoder, in its order
    if isinstance(v, str):
        return _quoted(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    if isinstance(v, (list, tuple)):
        return _list_text(v, depth)
    if isinstance(v, dict):
        return _dict_text(v, depth)
    try:
        json_text = v.json_text
    except AttributeError:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable") from None
    return json_text(depth)


def _list_text(v, depth: int) -> str:
    if not v:
        return "[]"
    inner = ",\n" + "  " * (depth + 1)
    close = "\n" + "  " * depth + "]"
    if set(map(type, v)) == {list} and set(map(len, v)) == {2}:
        flat = tuple(itertools.chain.from_iterable(v))
        # float.__repr__ is %r of an exact float only; a non-finite one
        # takes the walk below, which raises as json.dumps does
        if set(map(type, flat)) == {float} and all(map(math.isfinite, flat)):
            entries = inner.join([json_pair_template(depth + 1)] * len(v))
            return ("[" + inner[1:] + entries + close) % flat
    return "[" + inner[1:] + inner.join([_text(x, depth + 1) for x in v]) + close


def _dict_text(v, depth: int) -> str:
    if not v:
        return "{}"
    inner = ",\n" + "  " * (depth + 1)
    items = [_quoted(k) + ": " + _text(x, depth + 1) for k, x in sorted(v.items())]
    return "{" + inner[1:] + inner.join(items) + "\n" + "  " * depth + "}"
