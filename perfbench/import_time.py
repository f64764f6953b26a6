"""Time the import of modules in this interpreter, raw and scaled.

    python3 -I perfbench/import_time.py <directory for sys.path> <module>...

prints ``[scaled_seconds, raw_seconds]``.  The modules are imported first,
before anything else is loaded, so that the figure includes the standard
library modules they pull in; the host's speed is then read from kernel
runs right after (see ``speed.py``).
"""

import importlib
import json
import os
import sys
import time

KERNEL_RUNS = 100

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
seconds = time.perf_counter() - start

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

timings = [speed.timed_kernel() for _ in range(KERNEL_RUNS)]
print(json.dumps([seconds * speed.speed(timings), seconds]))
