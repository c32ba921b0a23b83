"""One fresh-interpreter start-up: import taucover and load a workload's inputs.

Run by ``run.py`` as ``python3 setup_probe.py WORKLOAD SEED``; its wall time,
interpreter start included, is one sample of ``setup_s``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed, HERE.parent / ".perfbench_out" / "work").load()
