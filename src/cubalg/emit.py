"""Deterministic emitters: canonical JSON, TSV tables, atomic writes.

Output paths are resolved against the CUBALG_OUTPUT_DIR environment
variable when relative; writes go through a temporary file and
os.replace so partially written output is never observed.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Sequence

OUTPUT_DIR_ENV = "CUBALG_OUTPUT_DIR"


def resolve_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTPUT_DIR_ENV, "")
    return os.path.join(base, path) if base else path


def atomic_write_text(path: str, text: str) -> str:
    path = resolve_path(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-emit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tsv_text(rows: Sequence[Dict], columns: Sequence[str]) -> str:
    """TSV with a header line of the given columns, also for no rows."""
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_cell_text(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _cell_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return ";".join(_cell_text(x) for x in v)
    return str(v)


def chart_to_obj(chart) -> dict:
    """BigradedChart -> plain JSON object {cells: [{s, t, rank, torsion}]},
    cells sorted by (s, t)."""
    cells = []
    for (s, t) in sorted(chart.cells):
        rank, torsion = chart.cells[(s, t)]
        cells.append({"s": s, "t": t, "rank": rank,
                      "torsion": list(torsion)})
    return {"s_max": chart.s_max, "t_values": list(chart.t_values),
            "cells": cells, "meta": dict(chart.meta)}


def chart_from_obj(obj: dict):
    """Inverse of chart_to_obj."""
    from .chart import BigradedChart
    chart = BigradedChart(s_max=obj["s_max"],
                          t_values=tuple(obj["t_values"]))
    chart.meta = dict(obj.get("meta", {}))
    for cell in obj["cells"]:
        chart.cells[(cell["s"], cell["t"])] = (
            cell["rank"], tuple(cell["torsion"]))
    return chart
