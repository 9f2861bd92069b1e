"""Compare two ``BENCH_*.json`` payloads: the perf-regression guard.

``repro bench compare <old.json> <new.json>`` matches cells by
:func:`~repro.bench.micro.cell_key`, renders one delta table per cell
family, and — with ``--fail-over PCT`` — exits non-zero when any
matched cell's guard metric regressed by more than PCT percent (points,
for a metric that is a percentage already).  What each family compares,
judges and exempts from the noise floor is declared once, in
:data:`~repro.bench.micro.CELL_FAMILIES`.

The baseline may be given literally, or as the word ``latest`` (or a
directory), which auto-discovers the newest committed ``BENCH_*.json``
by the date in its filename and fails with a clear message when none
exists.  Cells present in only one payload are listed (``(new)`` /
``(gone)``) but never fail the guard; every schema version of the
payload is accepted.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .micro import (
    CELL_FAMILIES,
    CellFamily,
    cell_family,
    cell_key,
    describe_key,
    validate_payload,
)

#: Filename pattern of a committed, dated baseline.
_BASELINE_RE = re.compile(r"^BENCH_(\d{4}-\d{2}-\d{2})\.json$")


def discover_baseline(root: str | Path = ".") -> Path:
    """The newest committed ``BENCH_<date>.json`` under *root*, by the
    date in the filename.

    Raises :class:`ValueError` with an actionable message when no dated
    baseline exists — a mis-wired CI guard must fail loudly, not pass
    vacuously.
    """
    root = Path(root)
    candidates = [
        path
        for path in root.glob("BENCH_*.json")
        if _BASELINE_RE.match(path.name)
    ]
    if not candidates:
        raise ValueError(
            f"no committed BENCH_<date>.json baseline found under {str(root)!r} "
            "— run 'repro bench micro' and commit the result, or pass an "
            "explicit baseline path"
        )
    return max(candidates, key=lambda path: _BASELINE_RE.match(path.name).group(1))


def resolve_baseline(old_path: str | Path) -> Path | str:
    """Resolve the ``old`` argument: ``latest`` (or a directory) means
    auto-discovery; anything else passes through untouched."""
    if str(old_path) == "latest":
        return discover_baseline(".")
    if Path(old_path).is_dir():
        return discover_baseline(old_path)
    return old_path


def load_payload(path: str | Path) -> dict:
    """Read and schema-validate one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise ValueError(f"cannot read bench payload {str(path)!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ValueError(
            f"bench payload {str(path)!r} is not valid JSON: {error}"
        ) from None
    validate_payload(payload)
    return payload


def guard_metric_for(key: tuple) -> str:
    """The ``--fail-over`` metric of one cell, by its family."""
    return cell_family(key[3]).guard


def _delta_unit(family: CellFamily, metric: str) -> str:
    """``pt`` for a metric whose delta is in points, else ``%``."""
    return "pt" if metric in family.points else "%"


def compare_payloads(old: dict, new: dict) -> list[dict]:
    """Match cells across two payloads; returns one row dict per cell.

    Matched rows carry ``old``/``new``/``delta_pct`` per metric of the
    cell's family (``delta_pct`` is ``(new - old) / old * 100``, or
    ``None`` when the old value is zero; for the family's points metrics
    it is ``new - old``); unmatched rows carry ``status`` ``"new"`` or
    ``"gone"``.
    """
    old_cells = {cell_key(cell): cell for cell in old["cells"]}
    new_cells = {cell_key(cell): cell for cell in new["cells"]}
    rows: list[dict] = []
    for key, old_cell in old_cells.items():
        new_cell = new_cells.get(key)
        if new_cell is None:
            rows.append({"key": key, "status": "gone", "cell": old_cell})
            continue
        row: dict = {"key": key, "status": "matched"}
        family = cell_family(key[3])
        for metric in family.metrics:
            before = old_cell.get(metric)
            after = new_cell.get(metric)
            if before is None or after is None:
                # A metric added in a newer schema version is absent
                # from older baselines — shown as n/a, never judged.
                row[metric] = {"old": before, "new": after, "delta_pct": None}
                continue
            if metric in family.points:
                delta = after - before
            else:
                delta = (
                    (after - before) / before * 100.0 if before > 0 else None
                )
            row[metric] = {"old": before, "new": after, "delta_pct": delta}
        rows.append(row)
    for key, new_cell in new_cells.items():
        if key not in old_cells:
            rows.append({"key": key, "status": "new", "cell": new_cell})
    return rows


#: Cells whose baseline guard value is below this many *seconds* are
#: shown in the table but not judged by the guard: a 1 ms cell
#: regressing "200%" is timer noise, not a perf regression.  A family's
#: guard values are converted to seconds before the floor applies;
#: deterministic families are never skipped.
DEFAULT_MIN_SECONDS = 0.05


def _guard_seconds(key: tuple, entry: dict) -> float:
    """The baseline guard value of one row, in seconds."""
    unit = cell_family(key[3]).floor_unit
    return float("inf") if unit is None else entry["old"] / unit


def worst_regression(
    rows: list[dict],
    *,
    min_seconds: float = 0.0,
):
    """The largest positive guard-metric ``delta_pct``, with its key.

    Each row is judged on its family's guard metric.  Rows whose
    baseline guard value is below *min_seconds* (after unit conversion)
    are skipped as noise-dominated.  Returns ``(delta_pct, key)``;
    ``(None, None)`` when nothing qualified.
    """
    worst: float | None = None
    worst_key = None
    for row in rows:
        if row["status"] != "matched":
            continue
        entry = row[guard_metric_for(row["key"])]
        delta = entry["delta_pct"]
        if delta is None or _guard_seconds(row["key"], entry) < min_seconds:
            continue
        if worst is None or delta > worst:
            worst = delta
            worst_key = row["key"]
    return worst, worst_key


def _render_group(rows: list[dict], family: CellFamily) -> str:
    from ..analysis.tables import render_table

    metrics = family.metrics
    units = [_delta_unit(family, metric) for metric in metrics]
    headers = ["cell"] + [
        f"{metric} old/new (Δ{unit})" for metric, unit in zip(metrics, units)
    ]
    body = []
    for row in rows:
        label = describe_key(row["key"])
        if row["status"] != "matched":
            body.append([label] + [f"({row['status']})"] * len(metrics))
            continue
        cells = []
        for metric, unit in zip(metrics, units):
            entry = row[metric]
            if entry["old"] is None or entry["new"] is None:
                cells.append("(n/a)")
                continue
            delta = entry["delta_pct"]
            delta_text = "n/a" if delta is None else f"{delta:+.0f}{unit}"
            cells.append(f"{entry['old']:.3f}/{entry['new']:.3f} ({delta_text})")
        body.append([label] + cells)
    return render_table(headers, body, title=family.title)


def render_comparison(rows: list[dict]) -> str:
    """Fixed-width per-cell delta tables, one per cell family."""
    parts = []
    for family in CELL_FAMILIES:
        group = [row for row in rows if cell_family(row["key"][3]) is family]
        if group:
            parts.append(_render_group(group, family))
    return "\n".join(parts)


def run_compare(
    old_path: str | Path,
    new_path: str | Path,
    *,
    fail_over_pct: float | None = None,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[str, int]:
    """The full compare flow: ``(report text, exit code)``.

    ``old_path`` may be the literal ``latest`` (or a directory) to
    auto-discover the newest committed baseline.  Exit code 1 means the
    ``--fail-over`` guard tripped; 2 means the payloads shared no
    judgeable cells (a mis-wired guard should fail loudly, not pass
    vacuously).  *min_seconds* is the baseline-time floor below which a
    cell is shown but not judged.
    """
    old_path = resolve_baseline(old_path)
    rows = compare_payloads(load_payload(old_path), load_payload(new_path))
    lines = [f"baseline: {old_path}", render_comparison(rows)]
    worst, worst_key = worst_regression(rows, min_seconds=min_seconds)
    if worst is None:
        lines.append(
            "no matching cells to judge (nothing shared, or every baseline "
            f"below the {min_seconds:g}s noise floor)"
        )
        return "\n".join(lines), 2
    guard = guard_metric_for(worst_key)
    lines.append(
        f"worst {guard} regression: {worst:+.1f}{_delta_unit(cell_family(worst_key[3]), guard)} "
        f"({describe_key(worst_key)}; cells under {min_seconds:g}s baseline "
        "not judged)"
    )
    if fail_over_pct is not None:
        if worst > fail_over_pct:
            lines.append(
                f"FAIL: regression exceeds --fail-over {fail_over_pct:g}%"
            )
            return "\n".join(lines), 1
        lines.append(f"OK: within --fail-over {fail_over_pct:g}%")
    return "\n".join(lines), 0
