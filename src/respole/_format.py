"""Deterministic numeric formatting for CSV/JSON output."""

from __future__ import annotations


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON serializer that renders floats via :func:`format_float`.

    The stdlib encoder insists on repr-style floats; regression outputs here
    pin a fixed digit count instead.  Supports the types its callers pass:
    dict, list, str, float and None, with deterministic key order (insertion
    order).  Anything else, a bool, an int or a tuple included, raises
    TypeError.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {dumps(str(k))}: {dumps(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
