"""Speed probe at exit of each cold gdist CLI child the benchmark times.

``run.py`` puts this directory on the child's PYTHONPATH and names a file in
``PERFBENCH_PROBE_OUT``.  When the child exits, after gdist has done its
work, it times the speed probe (``speed.py``) on its own vCPU and writes the
scale it gives and how long the probing took, which ``run.py`` subtracts from
the child's wall time.  Without the variable this module does nothing.
"""

import atexit
import os
import time


def _probe_at_exit(path: str) -> None:
    start = time.perf_counter_ns()
    import json
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from speed import SpeedLog

    log = SpeedLog()
    log.sample(10)
    text = json.dumps({"scale": log.overall_scale(), "cost_ns": time.perf_counter_ns() - start})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


if os.environ.get("PERFBENCH_PROBE_OUT"):
    atexit.register(_probe_at_exit, os.environ["PERFBENCH_PROBE_OUT"])
