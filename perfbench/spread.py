"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload trees --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles as a share of the median, beside the bound in BENCHMARK.json.
The timings' unnormalised values (see calibrate.py) are shown too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    totals = {"attempted": 0, "failed": 0, "known_defect": 0}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        record = json.loads((HERE / "out" / f"run-{args.workload}-s{seed}-t0.json").read_text())
        for key in totals:
            totals[key] += record[key]
        for name, value in record["unnormalised"].items():
            values.setdefault(f"{name} (unnorm.)", []).append(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print("ops " + ", ".join(f"{key} {n}" for key, n in totals.items()))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        bound = bounds.get(name, float("nan"))
        print(f"{name:24s} {statistics.median(vals):12.6g} {quartile_spread(vals):8.4f} {bound:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
