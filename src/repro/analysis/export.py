"""CSV / JSON export of bench and characterization results.

Every bench prints its table to the terminal; for plotting or external
analysis the same rows can be exported as CSV.  The writer is
deliberately tiny (stdlib ``csv``) but shared, so all exported
artifacts have the same shape: a header row, stringified cells, UTF-8.

The characterizer's machine-readable **datasheet** also lands here:
:func:`validate_datasheet` enforces the schema contract and
:func:`write_datasheet` renders it as canonical sorted JSON, so two
byte-identical sweeps export byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence, Union


def rows_to_csv(headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """Render rows as CSV text (header first)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buffer.getvalue()


def write_csv(path: Union[str, Path], headers: Sequence[str],
              rows: Iterable[Sequence[object]]) -> Path:
    """Write rows to ``path`` and return it."""
    path = Path(path)
    path.write_text(rows_to_csv(headers, rows), encoding="utf-8")
    return path


def sweep_to_csv(points, param_keys: Sequence[str],
                 value_keys: Sequence[str]) -> str:
    """CSV of :class:`repro.analysis.sweep.SweepPoint` results."""
    headers = list(param_keys) + list(value_keys)
    rows = [point.row(param_keys, value_keys) for point in points]
    return rows_to_csv(headers, rows)


def _cell(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.10g}"
    return value


# ----------------------------------------------------------------------
# datasheets
# ----------------------------------------------------------------------
#: Required blocks of one technology entry in a datasheet.
_TECH_BLOCKS = ("tech", "array", "area", "timing", "power", "variation")

#: Required top-level datasheet fields.
_DATASHEET_FIELDS = ("schema", "version", "settings", "tech_digests",
                     "function", "technologies", "yield")


def validate_datasheet(data: Any) -> Dict[str, Any]:
    """Structurally validate a characterization datasheet.

    Raises :class:`ValueError` naming the first offending field;
    returns ``data`` unchanged on success, so producers can validate
    inline (``return validate_datasheet(sheet)``).
    """
    from repro.analysis.characterize import (DATASHEET_SCHEMA,
                                             DATASHEET_VERSION)

    if not isinstance(data, dict):
        raise ValueError(f"datasheet must be an object, got "
                         f"{type(data).__name__}")
    for field in _DATASHEET_FIELDS:
        if field not in data:
            raise ValueError(f"datasheet missing field {field!r}")
    if data["schema"] != DATASHEET_SCHEMA:
        raise ValueError(f"datasheet schema {data['schema']!r} != "
                         f"{DATASHEET_SCHEMA!r}")
    if data["version"] != DATASHEET_VERSION:
        raise ValueError(f"datasheet version {data['version']!r} != "
                         f"{DATASHEET_VERSION}")
    techs = data["technologies"]
    if not isinstance(techs, list) or not techs:
        raise ValueError("datasheet 'technologies' must be a non-empty "
                         "list")
    if len(techs) != len(data["tech_digests"]):
        raise ValueError("datasheet 'technologies' and 'tech_digests' "
                         "disagree in length")
    for i, entry in enumerate(techs):
        for block in _TECH_BLOCKS:
            if block not in entry:
                raise ValueError(f"technologies[{i}] missing block "
                                 f"{block!r}")
        if entry["tech"].get("digest") != data["tech_digests"][i]:
            raise ValueError(f"technologies[{i}] digest disagrees with "
                             f"tech_digests[{i}]")
    if not isinstance(data["yield"], list):
        raise ValueError("datasheet 'yield' must be a list")
    for i, entry in enumerate(data["yield"]):
        for field in ("tech", "spare_rows", "spare_cols", "report"):
            if field not in entry:
                raise ValueError(f"yield[{i}] missing field {field!r}")
    return data


def datasheet_json(data: Dict[str, Any]) -> str:
    """The canonical (sorted, 2-space) JSON rendering of a datasheet."""
    return json.dumps(validate_datasheet(data), indent=2, sort_keys=True) \
        + "\n"


def write_datasheet(path: Union[str, Path], data: Dict[str, Any]) -> Path:
    """Validate and write one datasheet; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(datasheet_json(data), encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# workload curve reports
# ----------------------------------------------------------------------
#: Required top-level fields of one workload curve report.
_CURVE_FIELDS = ("schema", "version", "settings", "model", "function",
                 "clean", "technologies", "points")

#: Required fields of each defect-rate point.
_POINT_FIELDS = ("p_stuck_off", "p_stuck_on", "yield", "accuracy")

#: Wilson-interval fields every point's yield block must carry.
_CI_FIELDS = ("raw_ci95", "repaired_ci95")


def validate_curve_report(data: Any) -> Dict[str, Any]:
    """Structurally validate a workload accuracy/defect curve report.

    Raises :class:`ValueError` naming the first offending field;
    returns ``data`` unchanged on success (same contract as
    :func:`validate_datasheet`).
    """
    from repro.workloads.curves import CURVE_SCHEMA, CURVE_VERSION

    if not isinstance(data, dict):
        raise ValueError(f"curve report must be an object, got "
                         f"{type(data).__name__}")
    for field in _CURVE_FIELDS:
        if field not in data:
            raise ValueError(f"curve report missing field {field!r}")
    if data["schema"] != CURVE_SCHEMA:
        raise ValueError(f"curve schema {data['schema']!r} != "
                         f"{CURVE_SCHEMA!r}")
    if data["version"] != CURVE_VERSION:
        raise ValueError(f"curve version {data['version']!r} != "
                         f"{CURVE_VERSION}")
    model = data["model"]
    digest = model.get("digest") if isinstance(model, dict) else None
    if not (isinstance(digest, str) and len(digest) == 64
            and all(c in "0123456789abcdef" for c in digest)):
        raise ValueError("curve 'model.digest' must be a 64-hex digest")
    techs = data["technologies"]
    if not isinstance(techs, list) or not techs:
        raise ValueError("curve 'technologies' must be a non-empty list")
    for i, entry in enumerate(techs):
        for field in ("tech", "digest", "area_l2"):
            if field not in entry:
                raise ValueError(f"technologies[{i}] missing field "
                                 f"{field!r}")
    points = data["points"]
    if not isinstance(points, list) or not points:
        raise ValueError("curve 'points' must be a non-empty list")
    for i, point in enumerate(points):
        for field in _POINT_FIELDS:
            if field not in point:
                raise ValueError(f"points[{i}] missing field {field!r}")
        for field in _CI_FIELDS:
            interval = point["yield"].get(field)
            if not (isinstance(interval, list) and len(interval) == 2):
                raise ValueError(f"points[{i}].yield.{field} must be a "
                                 f"[lo, hi] pair")
    return data


def curve_json(data: Dict[str, Any]) -> str:
    """The canonical (sorted, 2-space) JSON rendering of a curve report."""
    return json.dumps(validate_curve_report(data), indent=2,
                      sort_keys=True) + "\n"


def write_curve_report(path: Union[str, Path],
                       data: Dict[str, Any]) -> Path:
    """Validate and write one curve report; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(curve_json(data), encoding="utf-8")
    return path
