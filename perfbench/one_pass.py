"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass starts cold
(the prepass/script memos ride on the trace objects and the runner
keeps a 16-trace LRU, so a second pass in the same process would be
warm).  A pass sets up, runs the timed phase, checks its outputs and
writes a JSON summary to ``--out``.

With ``--trace 1`` the pass records spans around each layer's public
entry points (see ``spans.py``) and also writes the Chrome trace and
the per-layer table next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _versions() -> dict:
    import platform

    import numpy

    from repro.sweep.cache import code_version
    from repro.sweep.trace_cache import generator_version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_version": code_version(),
        "generator_version": generator_version(),
    }


def _model_counts(results) -> dict:
    """Modelled-design counts of the measured jobs (repeat exactly)."""

    def ratio(prefix: str) -> float:
        misses = sum(r.stats.get(f"{prefix}.misses", 0) for r in results)
        total = misses + sum(r.stats.get(f"{prefix}.hits", 0) for r in results)
        return misses / total if total else 0.0

    return {
        "core.sim_cycles": sum(r.cycles for r in results),
        "core.persists": sum(r.persists for r in results),
        "core.node_updates": sum(r.node_updates for r in results),
        "core.bmt_cache_misses": sum(r.bmt_cache_misses for r in results),
        "mem.wpq_stall_cycles": sum(
            r.stats.get("core.wpq_stall_cycles", 0) for r in results
        ),
        "mem.ctr_miss_ratio": ratio("ctr"),
        "mem.mac_miss_ratio": ratio("mac"),
        "mem.bmt_miss_ratio": ratio("bmt"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0,
                        help="also time the inline replay behind the pool metrics")
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=HERE / "goldens")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, phase

    workload = WORKLOADS[args.workload]()
    seed = args.seed if args.seed is not None else workload.default_seed
    if workload.default_seed is None:
        seed = None  # the crash campaign is a fixed grid: no seed

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        sites = spans.install(rec)
    with phase(rec, "setup"):
        workload.setup(seed, args.scratch)
        goldens = None
        golden_path = args.goldens / f"{workload.name}.json"
        if seed == workload.default_seed and golden_path.exists():
            goldens = json.loads(golden_path.read_text())
    setup_s = time.monotonic() - args.spawned_at

    with phase(rec, "timed"):
        timed = workload.run(rec)
    timed.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workload.after_timed(timed, rec, probe=bool(args.probe))
    peak_kb = max(peak_kb, timed.extra.get("children_rss_kb", 0))

    # ---- checks, outside the timed phase -----------------------------
    failures = dict(timed.errors)
    checked = set(timed.ops) | set(timed.errors)
    skip_ahead_s = 0.0
    if goldens is not None:
        expected = goldens["ops"]
        for op_id, value in timed.ops.items():
            if expected.get(op_id) != value:
                failures.setdefault(op_id, "differs from its golden")
        for op_id in expected:
            if op_id not in checked:
                failures[op_id] = "golden op was not produced"
                checked.add(op_id)
    elif args.reference:
        check_start = time.monotonic()
        checks = workload.reference_checks(timed, seed)
        skip_ahead_s = time.monotonic() - check_start
        for op_id, ok in checks.items():
            checked.add(op_id)
            if not ok:
                failures[op_id] = "differs from the skip_ahead reference"
    for op_id, problem in workload.verify(timed).items():
        checked.add(op_id)
        failures.setdefault(op_id, problem)

    summary = {
        "workload": workload.name,
        "seed": seed,
        "memo_state": workload.memo_state,
        "traced": bool(args.trace),
        "golden_checked": goldens is not None,
        "setup_s": setup_s,
        "timed_s": timed.timed_s,
        "completed": timed.completed,
        "op_seconds": timed.op_seconds,
        "tail": workload.tail,
        "sim_instructions": timed.sim_instructions,
        "sim_ops": timed.sim_ops,
        "peak_rss_kb": peak_kb,
        "attempted": len(checked),
        "skip_ahead_check_s": skip_ahead_s,
        "failures": failures,
        "ops": timed.ops,
        "extra": timed.extra,
        "versions": _versions(),
    }
    if rec is not None:
        summary["layers"] = _layers(rec, workload, timed, sites, args.out)
    args.out.write_text(json.dumps(summary))
    return 0


def _layers(rec, workload, timed, sites, out: Path) -> dict:
    import spans

    phases = workload.metric_phases
    metrics = spans.layer_metrics(rec, phases)
    metrics.update(_model_counts(workload.metric_results(timed)))
    metrics["workloads.ops"] = ops = workload.metric_ops(timed)
    metrics["sim.eventful_ratio"] = metrics["sim.events"] / ops if ops else 0.0
    metrics["campaign.prune_ratio"] = timed.extra.get("prune_ratio", 0.0)
    stem = out.with_suffix("")
    spans.write_chrome_trace(rec, f"{stem}.chrome.json", f"perfbench {workload.name}")
    title = f"{workload.name}: self time per span over phase(s) {', '.join(phases)}"
    Path(f"{stem}.layers.md").write_text(spans.render_table(rec, phases, title))
    return {"metrics": metrics, "sites": sites, "table": rec.table(phases)}


if __name__ == "__main__":
    code = main()
    # The summary is written and closed; skip freeing the pass's objects
    # at interpreter exit, which only delays the next pass.
    sys.stdout.flush()
    os._exit(code)
