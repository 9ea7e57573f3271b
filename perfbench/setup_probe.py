"""Set-up of one workload in a fresh interpreter: import diffden, build the
workload config, make the density once.  Prints one JSON line and exits;
run.py times it from launch to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diffden import bench  # noqa: E402
import workloads  # noqa: E402


if __name__ == "__main__":
    config = workloads.WORKLOADS[sys.argv[1]].config(int(sys.argv[2]))
    start = time.perf_counter()
    bench.make_density(config)
    print(json.dumps({"make_density_s": time.perf_counter() - start}), flush=True)
