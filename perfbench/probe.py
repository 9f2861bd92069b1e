"""Set-up probe: one fresh process doing a compile workload's set-up.

``python3 perfbench/probe.py <workload>`` imports the package, builds the
workload's machines and topology maps, runs the warm cells, prints
``ready`` and exits.  ``run.py`` times it from spawn to that line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

if __name__ == "__main__":
    harness.setup(sys.argv[1])
    print("ready", flush=True)
