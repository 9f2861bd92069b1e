"""Statistics and process-memory helpers shared by the workloads."""

from __future__ import annotations

import statistics
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for caches, probe output and span dumps; inside the
#: checkout and ignored by git.
WORK_DIR = ROOT / ".perfbench-work"


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values)


def _status_kib(pid: int | str, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mib(pid: int | str = "self") -> float:
    """High-water resident set size of one process, in MiB."""
    return _status_kib(pid, "VmHWM") / 1024.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children first, breadth-first)."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop(0)
        try:
            tasks = list(Path(f"/proc/{parent}/task").iterdir())
        except FileNotFoundError:
            continue  # exited meanwhile
        for task in tasks:
            try:
                children = (task / "children").read_text().split()
            except FileNotFoundError:
                continue
            for child in map(int, children):
                found.append(child)
                frontier.append(child)
    return found


def tree_peak_rss_mib(pid: int) -> float:
    """Summed VmHWM of a process and all its descendants, in MiB."""
    total = 0.0
    for member in [pid, *descendants(pid)]:
        try:
            total += peak_rss_mib(member)
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total
