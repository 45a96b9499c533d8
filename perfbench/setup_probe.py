"""One set-up sample for ``run.py``: import the simulator, calibrate the
workload's cells, print ``ready`` and exit.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (needs the path above)

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
