"""Recompute ``pinned.json``: the 99%-diameter of every Fig. 9 trace.

Repetition ``r`` of a fig9 workload analyses the trace of structure
seed ``r + 1`` with its devices renamed by the run seed (see
``harness.synth``).  Renaming devices cannot change a diameter, so one
value per repetition pins every run seed.  Pinning analyses the
unrenamed traces in one process (``workers=1``), so the benchmark's
check also covers the renaming and, for fig9-sparse, the pool path.
Rerun only when a change is meant to move diameters:

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as H  # noqa: E402

sys.path.insert(0, str(H.SRC))

import fig9  # noqa: E402


def pin(workload: str) -> dict:
    spec = fig9.WORKLOADS[workload]
    table = {}
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=H.WORK))
    try:
        for rep in range(fig9.MAX_TIMED + 1):
            path = work / "trace.txt"
            fig9.generate(spec, rep, 0, path)
            _, table[str(rep)], _ = fig9.analyze(path, work / f"cache-{rep}", workers=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return table


def main() -> int:
    H.WORK.mkdir(parents=True, exist_ok=True)
    pinned = {name: pin(name) for name in sorted(fig9.WORKLOADS)}
    H.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
