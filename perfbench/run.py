"""Multipacking benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  ``--workload all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is nonzero when any output fails a correctness check.
The known defect described in README.md is counted and printed, but is
not a failed op.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"
PACKAGE = "multipacking"
MODULES = ("cli", "formats", "randgen", "reductions", "checkers", "oracle", "solver")

WORKLOADS = ("trees", "reductions")
# Instances generated per run.  The timed loop cycles through them, so they
# bound the reference solves a run needs; the traced run uses the first
# TRACE_OPS of them, untraced and then traced.
INSTANCES = {"trees": 400, "reductions": 1200}
TRACE_OPS = {"trees": 100, "reductions": 200}
SETUP_ROUNDS = 10
SETUP_SAMPLES = 5  # host-speed samples taken before each set-up round
DEFAULT_SEED = 1  # stored references in refs/ were made for this seed

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402


def import_package() -> SimpleNamespace:
    """Import the package from this checkout's src directory, freshly."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"{PACKAGE} imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


def instance_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-s{seed}"


def generate_instances(pkg, workload: str, seed: int) -> list:
    return wl.generate(pkg, workload, random.Random(f"{workload}/{seed}"), INSTANCES[workload])


def write_files(workload: str, seed: int, instances: list) -> None:
    """Write the instance files, each new: overwriting them was slower and noisier."""
    shutil.rmtree(instance_dir(workload, seed), ignore_errors=True)
    wl.write_instances(instances, instance_dir(workload, seed))


def setup_round(workload: str, seed: int, speed: calibrate.Speed) -> tuple:
    """Import the package and generate the instances.

    Returns the package, the instances, and the start and seconds taken.
    Writing the instance files is left out: its time depends on how many
    files the host's disk saw created and deleted before, not on the
    package (README.md, Steadiness).
    """
    speed.sample(SETUP_SAMPLES)
    t0 = perf_counter()
    pkg = import_package()
    instances = generate_instances(pkg, workload, seed)
    return pkg, instances, (t0, perf_counter() - t0)


def attempt(pkg, workload: str, inst) -> dict:
    try:
        return wl.run_op(pkg, workload, inst)
    except Exception as e:  # one failed operation must not stop the run
        return {"error": f"{type(e).__name__}: {e}"}


def timed_loop(pkg, workload: str, instances: list, seconds: float, speed: calibrate.Speed) -> tuple:
    """Closed loop, one client: the next op starts when the last returns.

    Runs for ``seconds``, and on until op_ms_p90 has ten samples beyond it.
    Between ops, samples the host speed every ``calibrate.EVERY_S``.
    Returns the per-op start and wall times and (instance index, outcome)
    pairs.
    """
    starts, times, outcomes = [], [], []
    deadline = perf_counter() + seconds
    next_sample = 0.0
    i = 0
    while perf_counter() < deadline or not stats.reportable(len(times), 90):
        if perf_counter() >= next_sample:
            speed.sample()
            next_sample = perf_counter() + calibrate.EVERY_S
        idx = i % len(instances)
        t0 = perf_counter()
        outcome = attempt(pkg, workload, instances[idx])
        times.append(perf_counter() - t0)
        starts.append(t0)
        outcomes.append((idx, outcome))
        i += 1
    speed.sample()
    return starts, times, outcomes


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    return json.loads(path.read_text())["refs"] if path.exists() else {}


def references(pkg, workload: str, instances: list, indices, tracer=None) -> dict:
    """Reference answers by instance index: stored ones where the key
    matches, the benchmark's own search otherwise.  With a tracer, every
    graph instance is also solved by the package's brute force under a
    ``reference`` span, so the trace shows brute beside a158; brute must
    agree with the reference."""
    stored = load_refs(workload)
    out = {}
    for idx in sorted(set(indices)):
        inst = instances[idx]
        out[idx] = stored.get(inst.ref_key) or wl.reference(pkg, workload, inst)
        if tracer is None:
            continue
        with tracer.span("reference"):
            mp, witness = pkg.oracle.brute_force_mp(inst.obj, cap=wl.BRUTE_CAP)
        if (mp, list(witness)) != (out[idx]["mp"], out[idx]["witness"]):
            out[idx] = {"disagree": f"brute force {mp} {list(witness)} != reference {out[idx]}"}
    return out


@dataclass
class Verdict:
    """Failed ops, and apart from them the ops that hit the known defect."""

    failed: int = 0
    known: int = 0
    reasons: dict = field(default_factory=dict)

    def note(self, label: str) -> None:
        self.reasons[label] = self.reasons.get(label, 0) + 1

    def fail(self, label: str) -> None:
        self.note(f"FAIL {label}")
        self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0


def judge(workload: str, instances: list, outcomes: list, refs: dict) -> Verdict:
    witness_ok = wl.witness_checker()
    v = Verdict()
    for idx, outcome in outcomes:
        key, ref = instances[idx].key, refs[idx]
        if "disagree" in ref:
            c = wl.Check(False, ref["disagree"])
        else:
            c = wl.check(workload, instances[idx], outcome, ref, witness_ok)
        if c.known_defect:
            v.known += 1
            v.note(f"known defect {key}: {c.reason}")
        elif not c.ok:
            v.fail(f"{key}: {c.reason}")
    return v


@dataclass
class Result:
    instances: list
    outcomes: list  # (instance index, outcome) per measured op
    verdict: Verdict
    metrics: dict
    notes: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_untraced(workload: str, seed: int, seconds: float) -> Result:
    speed = calibrate.Speed()
    rounds = []
    for _ in range(SETUP_ROUNDS // 2):
        pkg, instances, took = setup_round(workload, seed, speed)
        rounds.append(took)
    write_files(workload, seed, instances)
    starts, times, outcomes = timed_loop(pkg, workload, instances, seconds, speed)
    rss = peak_rss_mb()  # before the reference searches and later set-up rounds
    refs = references(pkg, workload, instances, [i for i, _ in outcomes])
    verdict = judge(workload, instances, outcomes, refs)
    # The other half of the set-up rounds run after the loop, so that the
    # median spans more of the host's speed swings.
    rounds += [setup_round(workload, seed, speed)[2] for _ in range(SETUP_ROUNDS - SETUP_ROUNDS // 2)]
    # Every time is divided by the host's speed factor when it was taken.
    op_s = [t / speed.factor(t0) for t0, t in zip(starts, times)]
    setup_s = [t / speed.factor(t0) for t0, t in rounds]
    ops = len(times)
    ms = [t * 1000 for t in op_s]
    metrics = {
        "ops_per_s": {"value": ops / sum(op_s), "unit": "ops/s"},
        "op_ms_p50": {"value": stats.percentile(ms, 50), "unit": "ms"},
        "op_ms_p90": {"value": stats.percentile(ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "success_rate": {"value": (ops - verdict.failed) / ops, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }
    raw_ms = [t * 1000 for t in times]
    raw = {
        "ops_per_s": ops / sum(times),
        "op_ms_p50": stats.percentile(raw_ms, 50),
        "op_ms_p90": stats.percentile(raw_ms, 90),
        "setup_s": statistics.median(t for _, t in rounds),
    }
    notes = {name: f"unnormalised {value:.4g}" for name, value in raw.items()}
    notes["op_ms_p90"] += f"; n={ops} ops, {stats.samples_beyond(ops, 90)} beyond"
    notes["setup_s"] += f"; median of {SETUP_ROUNDS} rounds"
    detail = {
        "instances_used": len({i for i, _ in outcomes}),
        "timed_wall_s": starts[-1] + times[-1] - starts[0],
        "unnormalised": raw,
        "speed_factor_median": statistics.median(speed.took) / calibrate.REF_UNIT_S,
        "speed_samples": len(speed.took),
        "setup_rounds_s": [t for _, t in rounds],
    }
    return Result(instances, outcomes, verdict, metrics, notes, detail)


def run_traced(workload: str, seed: int) -> Result:
    """One untraced and one traced pass over the first TRACE_OPS instances."""
    from layers import TARGETS, per_layer
    from tracing import Tracer

    pkg = import_package()
    tracer = Tracer()
    tracer.install(PACKAGE, TARGETS)
    with tracer.span("setup"):
        instances = generate_instances(pkg, workload, seed)
    tracer.uninstall()
    write_files(workload, seed, instances)
    sequence = [i % len(instances) for i in range(TRACE_OPS[workload])]

    t0 = perf_counter()
    plain = [attempt(pkg, workload, instances[idx]) for idx in sequence]
    untraced_wall = perf_counter() - t0

    tracer.install(PACKAGE, TARGETS)
    traced = []
    t0 = perf_counter()
    for op, idx in enumerate(sequence):
        tracer.op = op
        with tracer.span("op"):
            traced.append((idx, attempt(pkg, workload, instances[idx])))
    traced_wall = perf_counter() - t0
    tracer.op = None
    traced_refs = workload != "reductions"  # the reduction op already runs brute force
    if not traced_refs:
        tracer.uninstall()
    try:
        refs = references(pkg, workload, instances, sequence, tracer if traced_refs else None)
    finally:
        tracer.uninstall()

    verdict = judge(workload, instances, traced, refs)
    for a, (idx, b) in zip(plain, traced):
        if wl.answer(workload, a) != wl.answer(workload, b):
            verdict.fail(f"{instances[idx].key}: traced answer differs from untraced")
    metrics = per_layer(tracer.spans, len(traced), tracer.absent, traced_wall / untraced_wall)
    spans_path = OUT / f"spans-{workload}-s{seed}.json"
    spans_path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.records()}))
    detail = {
        "spans": str(spans_path.relative_to(ROOT)),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }
    return Result(instances, traced, verdict, metrics, detail=detail)


def run_one(args) -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            r = run_traced(args.workload, args.seed)
        else:
            r = run_untraced(args.workload, args.seed, args.seconds)
    finally:
        # The instance files are needed only while the run lasts.
        shutil.rmtree(instance_dir(args.workload, args.seed), ignore_errors=True)
    v = r.verdict
    answers = [(r.instances[i].key, wl.answer(args.workload, o)) for i, o in r.outcomes]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instance_digest": wl.digest(r.instances),
        "answers_digest": hashlib.sha256(json.dumps(answers).encode()).hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "attempted": len(r.outcomes),
        "failed": v.failed,
        "known_defect": v.known,
        "failures": v.reasons,
        **r.detail,
        "metrics": r.metrics,
    }
    (OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))

    for key in ("workload", "seed", "instance_digest", "answers_digest", "python", "cpu_count", "git_sha"):
        print(f"{key:16s} {record[key]}")
    print(f"{'ops':16s} attempted {record['attempted']}, failed {v.failed}")
    if args.workload == "reductions":
        print(f"{'known_defect':16s} {v.known} ops broke the min-HS <= k iff MP >= k claim "
              f"(bipartite k = 2, ROADMAP item 4)")
    for label, count in sorted(v.reasons.items())[:10]:
        print(f"  {count:4d} x {label}", file=sys.stderr)
    for name, m in r.metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({r.notes[name]})" if name in r.notes else ""
        print(f"{name:30s} {value:>12s} {m['unit']}{note}")
    print(json.dumps({"correct": v.correct, "attempted": record["attempted"], "failed": v.failed, "metrics": r.metrics}))
    return 0 if v.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except ImportError as e:
        print(f"error: cannot import {PACKAGE} from {SRC}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
