"""Deterministic JSON rendering.

Floats are written as their shortest round-trip repr, so identical
invocations produce byte-identical files and every float reads back with
the same bits.  A non-finite float raises ``ValueError``.
"""

from __future__ import annotations

import json


def dump_json(obj) -> str:
    """Render ``obj`` as a deterministic JSON document (trailing newline)."""
    return json.dumps(obj, indent=2, allow_nan=False, ensure_ascii=False) + "\n"
