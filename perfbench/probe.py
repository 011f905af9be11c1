"""Set-up probe, run in a fresh interpreter by run.py.

Prints, as JSON, the seconds from before the package import to the end of
the minimal call that fills the workload's lazy tables.  numpy, which the
package needs and cannot make faster to load, is imported before the clock
starts.  Its import takes about 0.14 s on a 2-core x86-64 host, which was
most of the enum-k3 set-up time; that median moved from 0.17 to 0.26 s
between sets of runs of the same code.

    python3 perfbench/probe.py WORKLOAD
"""

import json
import sys
import time

import numpy  # noqa: F401

start = time.perf_counter()

import checkout  # noqa: E402

checkout.import_flatiso()

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print(json.dumps({"setup_s": time.perf_counter() - start}))
