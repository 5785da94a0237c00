"""The workloads: seeded instances, one operation each, and its checks.

Every operation calls the package the way a user would: ``trees`` runs the
CLI's ``solve --json`` on an instance file, and ``reductions`` runs the
hardness-reduction pipeline on a Hitting-Set file.
Module attributes are looked up at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

from mpcheck import is_multipacking_def, max_multipacking, min_hitting_set

# Keys of a multipacking-report/1 document; later schemas must keep them.
REPORT_KEYS = ("schema", "instance", "algorithm", "mp", "witness", "family_size", "wall_time_s")
BRUTE_CAP = 64  # reduction outputs exceed solve --algo brute's n <= 22 limit

# Instance sizes cycle in a fixed order, so any prefix of the instance list
# holds each size class in fixed proportion and only shapes depend on the
# seed.  README.md explains the choice of classes.
TREE_SIZES = (18, 22, 18, 18, 22, 18, 18, 22, 18, 18)
# Hitting-Set slots (variant, builder, k, universe size n), cycled in order.
# The brute-force cost grows steeply with k and n, so both are fixed per
# slot and only the family is random.  The k = 2 slots keep randgen's own
# n in 1..HS_N_MAX and include the bipartite k = 2 case (ROADMAP item 4).
HS_N_MAX = 6
HS_M_MAX = 7
HS_SLOTS = (
    ("chordal", "reduce_hs_chordal", 4, 5),
    ("hyperbolic", "reduce_hs_half_hyperbolic", 4, 5),
    ("bipartite", "reduce_hs_bipartite", 4, 5),
    ("clawfree", "reduce_hs_clawfree", 4, 5),
    ("chordal", "reduce_hs_chordal", 2, None),
    ("hyperbolic", "reduce_hs_half_hyperbolic", 3, 6),
    ("bipartite", "reduce_hs_bipartite", 2, None),
    ("clawfree", "reduce_hs_clawfree", 3, 6),
)
CLAIM_CHECKS: dict[str, Callable[[Any, Any], bool]] = {
    "chordal": lambda pkg, g: pkg.checkers.is_chordal(g)[0],
    "half_hyperbolic": lambda pkg, g: pkg.checkers.hyperbolicity(g) <= Fraction(1, 2),
    "bipartite": lambda pkg, g: pkg.checkers.is_bipartite(g)[0],
    "claw_free": lambda pkg, g: pkg.checkers.is_clawfree(g)[0],
}


@dataclass
class Instance:
    key: str
    text: str
    info: dict
    obj: Any  # the generated Graph or HittingSetInstance
    path: Optional[Path] = None

    @property
    def ref_key(self) -> str:
        """sha256 of what fixes the answer: the file and, for reductions, the variant."""
        return hashlib.sha256(f"{self.info.get('variant', '')}\n{self.text}".encode()).hexdigest()


@dataclass
class Check:
    ok: bool
    reason: str = ""
    known_defect: bool = False


def generate(pkg: SimpleNamespace, workload: str, rng, count: int) -> list[Instance]:
    """``count`` instances in the workload's fixed size order, shapes from ``rng``."""
    out = []
    for i in range(count):
        if workload == "trees":
            n = TREE_SIZES[i % len(TREE_SIZES)]
            g = pkg.randgen.random_tree(n, rng)
            out.append(Instance(f"{i:04d}-n{n}", pkg.formats.serialize_graph(g), {"n": n}, g))
        elif workload == "reductions":
            variant, builder, k, n = HS_SLOTS[i % len(HS_SLOTS)]
            while True:  # the reductions need k <= n to pad a hitting set to size k
                inst = pkg.randgen.random_hitting_set_instance(n or HS_N_MAX, HS_M_MAX, k, rng, k_min=k)
                if inst.k <= inst.n and n in (None, inst.n):
                    break
            info = {"variant": variant, "builder": builder, "k": inst.k}
            out.append(Instance(f"{i:04d}-{variant}-k{inst.k}", pkg.formats.serialize_hitting_set(inst), info, inst))
        else:
            raise ValueError(f"unknown workload {workload}")
    return out


def write_instances(instances: list[Instance], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        inst.path = directory / f"{inst.key}.txt"
        inst.path.write_text(inst.text)


def digest(instances: list[Instance]) -> str:
    """sha256 of the serialised instance set, in order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"{inst.key}\n{inst.text}\n".encode())
    return h.hexdigest()


# --- operations (timed) -------------------------------------------------------


def solve_op(pkg: SimpleNamespace, inst: Instance) -> dict:
    """``multipacking solve <file> --json`` in process, default algorithm."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = pkg.cli.main(["solve", str(inst.path), "--json"])
        except SystemExit as e:
            rc = e.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def reduction_op(pkg: SimpleNamespace, inst: Instance) -> dict:
    """Build, round-trip through the graph format, certify, and decide both sides."""
    hs_inst = pkg.formats.parse_hitting_set(inst.path.read_text())
    built = getattr(pkg.reductions, inst.info["builder"])(hs_inst)
    g = pkg.formats.parse_graph(pkg.formats.serialize_graph(built.graph))
    certs = {c: (CLAIM_CHECKS[c](pkg, g) if c in CLAIM_CHECKS else None) for c in built.claims}
    hs = pkg.oracle.brute_force_min_hs(hs_inst.n, hs_inst.family)
    mp, witness = pkg.oracle.brute_force_mp(g, cap=BRUTE_CAP)
    return {
        "n_out": g.n,
        "adj": g.adj,
        "roundtrip": g == built.graph,
        "certs": certs,
        "hs": hs,
        "mp": mp,
        "witness": list(witness),
        "iff": (hs <= hs_inst.k) == (mp >= hs_inst.k),
    }


def run_op(pkg: SimpleNamespace, workload: str, inst: Instance) -> dict:
    return reduction_op(pkg, inst) if workload == "reductions" else solve_op(pkg, inst)


# --- references and checks (never timed) --------------------------------------


def graph_of(pkg: SimpleNamespace, workload: str, inst: Instance):
    """The graph whose MP an operation on ``inst`` decides."""
    if workload == "reductions":
        return getattr(pkg.reductions, inst.info["builder"])(inst.obj).graph
    return inst.obj


def reference(pkg: SimpleNamespace, workload: str, inst: Instance) -> dict:
    """Reference answer from the benchmark's own exhaustive searches.

    Only the reduction's graph comes from the package; MP, witness and
    min-HS are computed by ``mpcheck``, which shares no code with it.
    """
    mp, witness = max_multipacking(graph_of(pkg, workload, inst).adj)
    ref = {"mp": mp, "witness": list(witness)}
    if workload == "reductions":
        ref["hs"] = min_hitting_set(inst.obj.n, inst.obj.family)
    return ref


def answer(workload: str, outcome: dict) -> Optional[tuple]:
    """The part of an outcome that must not depend on tracing or timing."""
    if workload == "reductions":
        return (outcome["hs"], outcome["mp"], tuple(outcome["witness"]), outcome["iff"])
    try:
        report = json.loads(outcome["stdout"])
        return (report["mp"], tuple(report["witness"]), report["family_size"])
    except (ValueError, KeyError, TypeError):
        return None


def check(workload: str, inst: Instance, outcome: dict, ref: dict, witness_ok: Callable) -> Check:
    """Judge one operation against the reference and the definitional checker."""
    if "error" in outcome:
        return Check(False, f"exception: {outcome['error']}")
    if workload == "reductions":
        if not outcome["roundtrip"]:
            return Check(False, "graph changed in the format round trip")
        bad = [c for c, ok in outcome["certs"].items() if not ok]
        if bad:
            return Check(False, f"claims not certified: {bad}")
        if outcome["hs"] != ref["hs"]:
            return Check(False, f"min-HS {outcome['hs']} != reference {ref['hs']}")
        adj = outcome["adj"]
    else:
        if outcome["rc"] != 0:
            return Check(False, f"exit code {outcome['rc']}: {outcome['stderr'].strip()}")
        try:
            report = json.loads(outcome["stdout"])
        except ValueError:
            report = None
        if not isinstance(report, dict):
            return Check(False, "stdout is not a JSON object")
        missing = [k for k in REPORT_KEYS if k not in report]
        if missing or not str(report["schema"]).startswith("multipacking-report/"):
            return Check(False, f"report lacks {missing or 'schema'}")
        outcome = report
        adj = inst.obj.adj
    if outcome["mp"] != ref["mp"] or list(outcome["witness"]) != ref["witness"]:
        return Check(False, f"MP {outcome['mp']} {outcome['witness']} != reference {ref['mp']} {ref['witness']}")
    if not witness_ok(inst.key, adj, outcome["witness"]):
        return Check(False, "witness fails the definitional multipacking check")
    if workload == "reductions" and not outcome["iff"]:
        # ROADMAP item 4: at k = 2 the bipartite construction answers YES on
        # every instance.  MP, witness and min-HS above match the reference,
        # so the op's outputs are right and the broken claim is the
        # construction's: it is counted and reported apart from failed ops.
        # A broken iff on any other slot is a failed op.
        known = inst.info["variant"] == "bipartite" and inst.info["k"] == 2
        return Check(known, f"min-HS <= k iff MP >= k broken (hs {outcome['hs']}, mp {outcome['mp']})", known)
    return Check(True)


def witness_checker() -> Callable:
    """``is_multipacking_def`` memoised per instance and witness."""
    seen: dict = {}

    def ok(key: str, adj, witness) -> bool:
        k = (key, tuple(witness))
        if k not in seen:
            seen[k] = is_multipacking_def(adj, list(witness))
        return seen[k]

    return ok
