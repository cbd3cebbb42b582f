"""Serialization of orbit-degree reports (JSON primary, CSV secondary).

JSON layout::

    {"node": ..., "mode": ..., "budgets": {...}, "seed": ...,
     "orbits": [{"id": i, "estimate": x, "estimate_clamped": x,
                 "variance": s, "source": tag}, ...],
     "covariances": [{"i": a, "j": b, "value": c}, ...]}

Serialization is byte-stable: keys are sorted and floats use their shortest
round-trip representation, so identical reports dump to identical bytes.

:func:`dumps` writes exactly the text of ``json.dumps(payload,
sort_keys=True, indent=2)`` plus a newline, and raises ``TypeError``
where that does.  Python before 3.13 runs
``json.dumps`` with an ``indent`` in its pure-Python encoder, one generator
step per value.  :func:`dumps` hands every flat container, and every table
of flat rows such as ``orbits`` and ``covariances``, to one call of a
public ``json.JSONEncoder`` without an ``indent``, which runs in C; its item
separator carries the line break and the indent.  It does not call
``json.encoder.c_make_encoder`` directly: that name is private, and it
would save little over one ``encode`` call per container.  Nor does it use
orjson, which is no dependency and writes other bytes: ``0.00001`` for
``1e-05``, ``null`` for NaN and non-ASCII text unescaped.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain

from .estimators import OrbitReport


def report_to_dict(report: OrbitReport, node_label: int | None = None) -> dict:
    return {
        "node": report.node if node_label is None else node_label,
        "mode": report.mode,
        "budgets": dict(report.budgets),
        "seed": report.seed,
        "orbits": [
            {
                "id": i,
                "estimate": float(e.value),
                "estimate_clamped": float(e.clamped),
                "variance": float(e.variance),
                "source": e.source,
            }
            for i, e in sorted(report.estimates.items())
        ],
        "covariances": [
            {"i": i, "j": j, "value": float(c)}
            for (i, j), c in sorted(report.covariances.items())
        ],
    }


def report_rows(
    report: OrbitReport, node_label: int | None = None
) -> tuple[list[str], list[list]]:
    """Header and rows of the flat one-row-per-orbit table."""
    node = report.node if node_label is None else node_label
    header = [
        "node", "mode", "orbit", "estimate", "estimate_clamped", "variance", "source"
    ]
    rows = [
        [node, report.mode, i, e.value, e.clamped, e.variance, e.source]
        for i, e in sorted(report.estimates.items())
    ]
    return header, rows


def dumps(payload: dict | list) -> str:
    """Deterministic JSON text for any report payload.

    The text is exactly ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, and a payload that cannot be serialized raises
    ``TypeError``, as there.  It takes one C encoder call per flat
    container or table rather than a pure-Python generator step per value;
    the module docstring says why the private C encoder and orjson are not
    used.
    """
    return _write(payload, 0) + "\n"


# The value types a flat container holds.  Exact types, so that one set
# lookup per value decides; anything else takes the recursive path.
_FLAT = frozenset((str, int, float, bool, type(None)))


@cache
def _encode(depth: int):
    """``encode`` of an encoder whose item separator breaks the line and
    indents to ``depth`` levels; one encoder per depth."""
    sep = ",\n" + "  " * depth
    return json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode


def _flat(values) -> bool:
    return _FLAT.issuperset(map(type, values))


def _table(rows) -> bool:
    """Whether ``rows`` are non-empty dicts of flat values."""
    return (
        {dict}.issuperset(map(type, rows))
        and all(rows)
        and _flat(chain.from_iterable(map(dict.values, rows)))
    )


def _key(k) -> str:
    """A key of a dict that is not flat, converted as ``json.dumps`` does."""
    if isinstance(k, str):
        return _encode(0)(k)
    if isinstance(k, (int, float)) or k is None:  # bool is an int
        return '"' + _encode(0)(k) + '"'
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {k.__class__.__name__}"
    )


def _block(brackets: str, body: str, depth: int) -> str:
    """``body``, indented one level past ``depth``, between ``brackets`` on
    their own lines."""
    return f"{brackets[0]}\n{'  ' * (depth + 1)}{body}\n{'  ' * depth}{brackets[1]}"


def _write(o, depth: int) -> str:
    """``o`` at ``depth`` levels of indent.

    A flat container is one encoder call, whose brackets move to their own
    lines.  A table is one call at its rows' item depth, and one
    ``str.replace`` re-indents the row breaks: JSON escapes every newline
    inside a string, so each raw newline is a separator, and only a row's
    closing brace can precede one that ends a row.  The keys of flat
    containers are converted by the encoder.
    """
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if _flat(o):
            return _block("[]", _encode(depth + 1)(o)[1:-1], depth)
        if _table(o):
            inner, deep = "  " * (depth + 1), "  " * (depth + 2)
            rows = _encode(depth + 2)(o)[2:-2].replace(
                "},\n" + deep + "{", "\n" + inner + "},\n" + inner + "{\n" + deep
            )
            return _block("[]", _block("{}", rows, depth + 1), depth)
        items = [_write(x, depth + 1) for x in o]
        return _block("[]", (",\n" + "  " * (depth + 1)).join(items), depth)
    if isinstance(o, dict):
        if not o:
            return "{}"
        if _flat(o.values()):
            return _block("{}", _encode(depth + 1)(o)[1:-1], depth)
        items = [_key(k) + ": " + _write(v, depth + 1) for k, v in sorted(o.items())]
        return _block("{}", (",\n" + "  " * (depth + 1)).join(items), depth)
    return _encode(depth)(o)  # a scalar, or the encoder's TypeError
