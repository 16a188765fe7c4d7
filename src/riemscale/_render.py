"""Deterministic text output shared by the report, the traces and the CLI.

Floats carry 17 significant digits so that every value round-trips
exactly, booleans are written ``true``/``false``, JSON keys are emitted
in sorted order, and no timestamps or environment-dependent data appear
anywhere.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence

import numpy as np


def _scalar(value) -> str:
    if type(value) is float:  # the common cell, tested before the isinstance chain
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _render_value(value, indent: int, pad: str) -> str:
    if type(value) is float:  # as in _scalar
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite value {value!r}")
        return format(value, ".17g")
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    if isinstance(value, (bool, int, float, np.integer, np.floating)):
        return _scalar(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad * (indent + 1)
        items = [
            f"{inner}{json.dumps(str(k))}: {_render_value(value[k], indent + 1, pad)}"
            for k in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad * indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad * (indent + 1)
        items = [f"{inner}{_render_value(v, indent + 1, pad)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad * indent + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(value) -> str:
    """Canonical JSON rendering of a report (or any plain structure)."""
    return _render_value(value, 0, "  ") + "\n"


def render_csv(
    columns: Sequence[str],
    rows: Iterable[Sequence],
    preamble: Mapping[str, object] | None = None,
) -> str:
    """CSV table: one ``# key=value`` line per preamble entry, the
    header, then one line per row."""
    lines = [f"# {k}={_scalar(v)}" for k, v in (preamble or {}).items()]
    lines.append(",".join(columns))
    lines += [",".join(_scalar(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
