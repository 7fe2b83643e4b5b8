"""Deterministic structured-text (JSON) serialization for reports and files.

Every float is written with 17 significant digits, which guarantees exact
binary round-trip through any conforming JSON parser, and the writer is
fully deterministic (insertion-ordered keys, fixed formatting), so reports
produced from identical inputs are byte-identical.
"""

import json
import math

from . import __version__

__all__ = ["envelope", "dumps", "loads", "dump_to", "load_from"]


def envelope(command, parameters, values, tolerances, verdicts, seed):
    """The layout shared by every command's report."""
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "parameters": parameters,
        "tolerances": tolerances,
        "values": values,
        "verdicts": verdicts,
    }


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable while staying exact
        return f"{x:.1f}"
    return format(x, ".17g")


def _write(obj, out, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(pad_in + json.dumps(key) + ": ")
            _write(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, str)) or v is None for v in seq)
        if simple and len(seq) <= 8:
            out.append("[")
            for i, val in enumerate(seq):
                _write(val, out, indent, level + 1)
                if i < len(seq) - 1:
                    out.append(", ")
            out.append("]")
        else:
            out.append("[\n")
            for i, val in enumerate(seq):
                out.append(pad_in)
                _write(val, out, indent, level + 1)
                out.append(",\n" if i < len(seq) - 1 else "\n")
            out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        # numpy scalars and arrays arrive here; coerce through tolist/item
        if hasattr(obj, "tolist"):
            _write(obj.tolist(), out, indent, level)
        elif hasattr(obj, "item"):
            _write(obj.item(), out, indent, level)
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent=2):
    """Serialize to deterministic JSON text with round-trip-exact floats."""
    out = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def loads(text):
    """Parse report text back into plain Python objects."""
    return json.loads(text)


def dump_to(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_from(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
