"""Write refs/<workload>.json: reference answers for the default seed.

    python3 perfbench/make_refs.py

Each instance of the default seed is solved by the benchmark's own
exhaustive search (``mpcheck``), by the package's ``brute_force_mp`` and,
up to A158_MAX_N vertices, by a158, whose family grows as 1.58^n.  A
reference is stored only where all of them agree, and for reductions
where ``brute_force_min_hs`` agrees with ``mpcheck.min_hitting_set``.
Entries are
keyed by ``Instance.ref_key``, a sha256 of the instance file and variant,
so a changed generator falls back to brute force instead of using a stale
answer.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

A158_MAX_N = 22


def main() -> int:
    pkg = run.import_package()
    disagreements = 0
    for workload in run.WORKLOADS:
        instances = run.generate_instances(pkg, workload, run.DEFAULT_SEED)
        refs = {}
        for inst in instances:
            ref = wl.reference(pkg, workload, inst)
            g = wl.graph_of(pkg, workload, inst)
            answers = {"brute": pkg.oracle.brute_force_mp(g, cap=wl.BRUTE_CAP)}
            if g.n <= A158_MAX_N:
                answers["a158"] = pkg.solver.max_multipacking_158(g)
            wrong = [f"{k} {mp} {list(w)}" for k, (mp, w) in answers.items() if (mp, list(w)) != (ref["mp"], ref["witness"])]
            if workload == "reductions":
                hs = pkg.oracle.brute_force_min_hs(inst.obj.n, inst.obj.family)
                if hs != ref["hs"]:
                    wrong.append(f"min-HS {hs}")
            if wrong:
                print(f"{workload} {inst.key}: {', '.join(wrong)} != reference {ref}", file=sys.stderr)
                disagreements += 1
                continue
            refs[inst.ref_key] = ref
        doc = {"workload": workload, "seed": run.DEFAULT_SEED, "instances": len(instances), "refs": refs}
        (run.REFS / f"{workload}.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(refs)} of {len(instances)} references stored")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
