"""perfbench: the repository's benchmark, one workload per invocation.

    python3 perfbench/run.py --workload fig9-dense --seed 1 --seconds 20 --trace 0

Workloads: ``fig9-dense``, ``fig9-sparse`` (:mod:`fig9`) and
``service-mix`` (:mod:`service_mix`).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the per-layer ledger instead.
Every line but the last is the human-readable run record (JSON); the
last line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  See ``perfbench/README.md`` for the metric ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as H  # noqa: E402

#: the metric names and units are declared once, in BENCHMARK.json.
BENCHMARK = H.ROOT / "BENCHMARK.json"


def declared(section: str) -> Dict[str, str]:
    with open(BENCHMARK, encoding="utf-8") as stream:
        return {m["name"]: m["unit"] for m in json.load(stream)[section]}


#: ledger layers reported as ``<layer>_s`` wall-time metrics.
TIMED_LAYERS = (
    "traces.datasets.build",
    "traces.format.read_contacts",
    "core.csr.build_csr",
    "core.engine_vec.run_sources_raw",
    "core.engine_vec.profiles_from_raw",
    "core.engine_pool.run",
    "core.optimal.compute_profiles",
    "core.storage.save_profiles",
    "core.storage.load_profiles",
    "core.segments.build_segment_table",
    "core.delay_cdf.cdf_from_table",
    "core.diameter.diameter",
)

def per_layer_metrics(outcome: Dict[str, Any]) -> Dict[str, float]:
    ledger = outcome["ledger"]
    values = {f"{layer}_s": ledger.get(layer, {}).get("wall_s", 0.0) for layer in TIMED_LAYERS}
    values.update(outcome["layer_extra"])
    base = values["core.optimal.compute_profiles_s"]
    values["core.cache.hit_over_recompute"] = values["core.storage.load_profiles_s"] / base if base else 0.0
    values["bench.trace_overhead_s"] = outcome["trace_overhead_s"]
    return values



def main(argv: List[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes are salted per process, so dicts keyed by device
        # names lay out differently from run to run and per-lookup times
        # with them; a fixed salt makes runs repeat.  Restart once with it.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *argv])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fig9-dense", "fig9-sparse", "service-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not H.checkout_ok():
        print(f"perfbench: no program sources under {H.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(H.SRC))
    os.environ.setdefault("REPRO_LOG", "error")
    H.WORK.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)

    H.adopt_orphans()
    try:
        if args.workload == "service-mix":
            import service_mix

            outcome = service_mix.ServiceMixRun(args.seed, args.seconds, trace).run()
            params = service_mix.params()
        else:
            import fig9

            outcome = fig9.Fig9Run(args.workload, args.seed, args.seconds, trace).run()
            params = dict(fig9.WORKLOADS[args.workload], hop_bounds="1-12", grid_points=fig9.GRID_POINTS)
    finally:
        if "repro.core.engine_pool" in sys.modules:
            sys.modules["repro.core.engine_pool"].close_pools()
        H.reap_all()

    record = H.run_record(args.workload, args.seed, trace, params)
    record["tail"] = outcome["tail"]
    record["attempted"] = outcome["attempted"]
    record["failed"] = outcome["failed"]
    record["failed_frac"] = outcome["failed"] / max(1, outcome["attempted"])
    record["failures"] = outcome["failures"]
    if "raw_wall" in outcome:
        record["raw_wall"] = outcome["raw_wall"]
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        values = per_layer_metrics(outcome)
        record["ledger"] = outcome["ledger"]
        record["trace_overhead_s"] = outcome["trace_overhead_s"]
        for name, unit in declared("per_layer").items():
            metrics[name] = {"value": float(values[name]), "unit": unit}
    else:
        units = declared("end_to_end")
        record["series"] = {name: dict(outcome["series"][name], unit=unit) for name, unit in units.items()}
        for name, unit in units.items():
            metrics[name] = {"value": float(outcome["series"][name]["value"]), "unit": unit}
    print(json.dumps({"record": record}, sort_keys=True))
    for name, entry in metrics.items():
        spread = record.get("series", {}).get(name)
        detail = f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n {spread['n']})" if spread else ""
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}{detail}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
