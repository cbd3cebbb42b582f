"""Serialization of orbit-degree reports (JSON primary, CSV secondary).

JSON layout::

    {"node": ..., "mode": ..., "budgets": {...}, "seed": ...,
     "orbits": [{"id": i, "estimate": x, "estimate_clamped": x,
                 "variance": s, "source": tag}, ...],
     "covariances": [{"i": a, "j": b, "value": c}, ...]}

Serialization is byte-stable: keys are sorted and floats use their shortest
round-trip representation, so identical reports dump to identical bytes.
"""

from __future__ import annotations

import json

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
    """Deterministic JSON text for any report payload."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
