"""Setup probe: import the pipeline and start the engine pool, then
print ``ready``.  The fig9 workloads time fresh processes of this script.

    python3 perfbench/ready.py <workers>
"""

import sys
from multiprocessing import resource_tracker

import repro.core.cache  # noqa: F401  (the pipeline's modules)
import repro.core.diameter  # noqa: F401
import repro.traces.datasets  # noqa: F401
import repro.traces.format  # noqa: F401
from repro.core.contact import Contact
from repro.core.engine_pool import close_pools
from repro.core.optimal import compute_profiles
from repro.core.temporal_network import TemporalNetwork

workers = int(sys.argv[1])
if workers > 1:
    chain = TemporalNetwork([Contact(0.0, 10.0, i, i + 1) for i in range(workers + 1)])
    compute_profiles(chain, hop_bounds=(1,), workers=workers)
print("ready", flush=True)
close_pools()
# The pool's shared memory started a resource tracker; stop it and wait
# for it, so no process outlives this one.
resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
