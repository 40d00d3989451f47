"""``python -m pytest benchmarks/cortexbench -q`` needs ``repro`` importable
without ``PYTHONPATH`` set; tier-1 (``testpaths = tests``) never loads this."""

import sys

from benchmarks.cortexbench import spec

if str(spec.SRC) not in sys.path:
    sys.path.insert(0, str(spec.SRC))
