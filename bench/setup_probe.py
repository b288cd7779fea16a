"""One benchmark set-up in a fresh process, timed by run.py as setup_s.

Usage: python3 bench/setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import set_up  # noqa: E402

set_up(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
