"""Repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload figure_sweep --seed 2020 --seconds 30 --trace 0

Each pass of the workload runs in a fresh process (``one_pass.py``), so
every pass starts with cold memos; passes repeat until ``--seconds`` is
used up (at least ``MIN_PASSES``); metrics are medians and totals over
all passes.  With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``
are printed; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics are printed, plus a Chrome trace and a per-layer
table under ``.perfbench/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every checked operation matched: its golden (default
seed), the ``skip_ahead`` reference sample and the first pass (other
seeds), and ``verify_campaign`` (crash cells).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _run_pass(args, index: int, traced: bool, out_dir: Path) -> dict:
    out = out_dir / f"pass{index}-{'traced' if traced else 'untraced'}.json"
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT / "tmp"))
    cmd = [
        sys.executable,
        str(HERE / "one_pass.py"),
        "--workload", args.workload,
        "--trace", str(int(traced)),
        "--probe", str(args.trace),
        "--reference", str(int(index == 0)),
        "--goldens", str(args.goldens),
        "--scratch", str(scratch),
        "--out", str(out),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT,
            env=_base_env(),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(out.read_text())


def _base_env() -> dict:
    # Every pass compiles from source (no .pyc left behind, the same
    # import cost in every checkout), and every cache the program might
    # touch stays inside the checkout.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("PLP_TRACE_CACHE", "PLP_SWEEP_CACHE", "PLP_CAMPAIGN_CACHE"):
        env[var] = str(OUT / "tmp" / "cache")
    for var in ("PYTHONPATH", "PLP_SWEEP_JOBS", "PLP_NO_TRACE_CACHE", "PLP_NO_RESULT_CACHE"):
        env.pop(var, None)
    return env


def _end_to_end(passes) -> dict:
    """The end-to-end metrics over all passes of the run.

    Throughput is total ops over total timed wall and the op median is
    taken over every op of every pass: on a shared host both vary less
    between runs than a median of per-pass values.
    """
    from workloads import percentile

    op_seconds = [x for p in passes for x in p["op_seconds"]]
    return {
        "setup_s": statistics.median([p["setup_s"] for p in passes]),
        "ops_per_s": sum(p["completed"] for p in passes) / sum(p["timed_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(op_seconds),
        "op_tail_ms": statistics.median(
            [1e3 * percentile(p["op_seconds"], p["tail"]) for p in passes]
        ),
        "peak_rss_mb": statistics.median([p["peak_rss_kb"] / 1024.0 for p in passes]),
    }


def _per_layer(untraced, traced) -> dict:
    """Median over traced passes of each per-layer metric, plus the
    pool split and the tracing overhead from the untraced passes."""
    names = traced[0]["layers"]["metrics"].keys()
    metrics = {
        name: statistics.median([p["layers"]["metrics"][name] for p in traced]) for name in names
    }

    def phase_wall(p):
        extra = p["extra"]
        return extra["pool_inline_s"] if "pool_inline_s" in extra else p["timed_s"]

    untraced_wall = statistics.median([phase_wall(p) for p in untraced])
    metrics["bench.trace_overhead"] = metrics["bench.traced_wall_s"] / untraced_wall
    pool = [p["extra"] for p in untraced if "pool_inline_s" in p["extra"]]
    if pool:
        inline = statistics.median([e["pool_inline_s"] for e in pool])
        through_pool = statistics.median([e["pool_s"] for e in pool])
        metrics["sweep.pool_speedup"] = inline / through_pool
        metrics["sweep.pool_overhead_s"] = through_pool - inline / 2
        metrics["sweep.pool_spawns"] = statistics.median([e["pool_spawns"] for e in pool])
    else:
        metrics["sweep.pool_speedup"] = 0.0
        metrics["sweep.pool_overhead_s"] = 0.0
        metrics["sweep.pool_spawns"] = 0
    return metrics


def _cross_pass_failures(passes) -> dict:
    """Ops whose output differs from the first pass's (determinism)."""
    first = passes[0]["ops"]
    failures = {}
    for index, p in enumerate(passes[1:], start=1):
        for op_id, value in p["ops"].items():
            if op_id in first and first[op_id] != value:
                failures[f"pass{index}:{op_id}"] = "differs from the first pass"
    return failures


def _largest_layer(m: dict) -> str:
    layers = {
        k: v for k, v in m.items()
        if k.endswith("_s") and not k.startswith("bench.") and k != "campaign.plans_self_s"
    }
    return max(layers, key=layers.get)


# Per-layer predictions stated before measuring; a traced run reports
# each as held or not held.  They are not tuned to pass.
PREDICTIONS = {
    "figure_sweep": (
        ("the metadata script is the largest build layer (sim.mdscript_s > sim.prepass_s)",
         lambda m: m["sim.mdscript_s"] > m["sim.prepass_s"]),
        ("dispatch work: sim.eventful_ratio about 0.11 (0.09 to 0.13)",
         lambda m: 0.09 <= m["sim.eventful_ratio"] <= 0.13),
        ("no functional secure-PM work (campaign.cells 0, crypto.bmt_update_s 0)",
         lambda m: m["campaign.cells"] == 0 and m["crypto.bmt_update_s"] == 0),
    ),
    "sensitivity_pool": (
        ("the pool stage's prepass does no work (memo hit ratio 1.0, sim.prepass_s under 1 % of the wall)",
         lambda m: m["sim.prepass_memo_hit_ratio"] == 1.0
         and m["sim.prepass_s"] <= 0.01 * m["bench.traced_wall_s"]),
        ("dispatch dominates (system.dispatch_s is the largest layer)",
         lambda m: _largest_layer(m) in ("system.dispatch_s", "system.run_s")),
        ("one pool spawn per pass", lambda m: m["sweep.pool_spawns"] == 1),
    ),
    "stream_bounded": (
        ("chunk reads under 1 % of the wall",
         lambda m: m["workloads.chunk_read_s"] < 0.01 * m["bench.traced_wall_s"]),
        ("no memo: one prepass build per streamed run, memo hit ratio 0",
         lambda m: m["sim.prepass_builds"] == 2 and m["sim.prepass_memo_hit_ratio"] == 0),
        ("eventful ratio about (0.23 + 0.08) / 2 = 0.155 (0.13 to 0.18)",
         lambda m: 0.13 <= m["sim.eventful_ratio"] <= 0.18),
    ),
    "crash_campaign": (
        ("no sim.* or dispatch time",
         lambda m: all(m[k] == 0 for k in ("sim.prepass_s", "sim.mdscript_s", "system.run_s"))),
        ("campaign.plans_s is the largest layer", lambda m: _largest_layer(m) == "campaign.plans_s"),
        ("plan generation is about 55 % of the wall (45 to 65 %)",
         lambda m: 0.45 <= m["campaign.plans_s"] / m["bench.traced_wall_s"] <= 0.65),
    ),
}


def _write_layer_table(out_dir: Path, metrics: dict, predictions, provenance) -> None:
    """``layers.md``: the first traced pass's self-time table, the
    tracing overhead and the predictions, for one workload."""
    table = (out_dir / "pass1-traced.layers.md").read_text()
    lines = [
        f"# perfbench {provenance['workload']}: per-layer self time",
        "",
        f"seed {provenance['seed']}, nproc {provenance['nproc']}, Python {provenance['python']}, "
        f"numpy {provenance['numpy']}, code {provenance['code_version']}, "
        f"generator {provenance['generator_version']}, memo state: {provenance['memo_state']}",
        "",
        "The table is the first traced pass; the run's per-layer metrics are "
        "medians over all its traced passes.",
        "",
        table,
        f"bench.trace_overhead: {metrics['bench.trace_overhead']:.3f} "
        "(traced ÷ untraced wall of the measured phase, medians over passes)",
        "",
    ]
    lines += [
        f"- prediction {'held' if p['held'] else 'NOT held'}: {p['prediction']}"
        for p in predictions
    ]
    (out_dir / "layers.md").write_text("\n".join(lines) + "\n")


def check_metrics(spec: dict, metrics: dict, key: str) -> list:
    """Problems with a metrics dict against ``BENCHMARK.json``'s list."""
    declared = {m["name"]: m["unit"] for m in spec[key]}
    problems = [f"metric {name!r} is not declared in {key}" for name in metrics if name not in declared]
    problems += [f"declared metric {name!r} was not measured" for name in declared if name not in metrics]
    for name, value in metrics.items():
        if name in declared and not isinstance(value, (int, float)):
            problems.append(f"metric {name!r} is not a number: {value!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 2020 for profile traces, "
                        "3 for the stream trace; crash_campaign has none)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--goldens", type=Path, default=HERE / "goldens")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src' / 'repro'}")
    try:
        spec = json.loads(args.spec.read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {args.spec}: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("pass*"):
        stale.unlink()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    # Passes repeat while the measured time left fits the longest pass
    # so far.  The one-off skip_ahead reference check of pass 0 (other
    # seeds) is outside the measurement and does not use up the time.
    untraced, traced = [], []
    used = longest = 0.0
    try:
        index = 0
        while index < MIN_PASSES or used + longest <= seconds:
            is_traced = bool(args.trace) and index % 2 == 1
            t0 = time.monotonic()
            result = _run_pass(args, index, is_traced, out_dir)
            wall = time.monotonic() - t0 - result["skip_ahead_check_s"]
            used += wall
            longest = max(longest, wall)
            (traced if is_traced else untraced).append(result)
            index += 1
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return _fail(str(exc))

    passes = untraced + traced
    failures = {}
    for i, p in enumerate(passes):
        failures.update({f"pass{i}:{k}": v for k, v in p["failures"].items()})
    failures.update(_cross_pass_failures(passes))
    attempted = sum(p["attempted"] for p in passes)
    failed = len(failures)

    if args.trace:
        metrics = _per_layer(untraced, traced)
        key = "per_layer"
    else:
        metrics = _end_to_end(untraced)
        key = "end_to_end"
    problems = check_metrics(spec, metrics, key)
    if problems:
        return _fail("; ".join(problems), code=3)
    units = {m["name"]: m["unit"] for m in spec[key]}

    first = passes[0]
    provenance = dict(first["versions"])
    provenance.update(
        {
            "workload": args.workload,
            "seed": first["seed"] if first["seed"] is not None else "none (fixed crash grid)",
            "memo_state": first["memo_state"],
            "traced": bool(args.trace),
            "passes": len(passes),
            "traced_passes": len(traced),
            "golden_checked": first["golden_checked"],
        }
    )
    predictions = [
        {"prediction": text, "held": bool(test(metrics))}
        for text, test in (PREDICTIONS[args.workload] if args.trace else ())
    ]
    report = {
        "provenance": provenance,
        "predictions": predictions,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(list(failures.items())[:50]),
        "metrics": metrics,
        "sim_minstr_per_s": statistics.median(
            [p["sim_instructions"] / 1e6 / p["timed_s"] for p in untraced]
        ),
    }
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(report, indent=2))
    if args.trace:
        _write_layer_table(out_dir, metrics, predictions, provenance)

    print(f"perfbench {args.workload}: {len(passes)} passes, seed {provenance['seed']}, "
          f"{'traced' if args.trace else 'untraced'}, {attempted} checked ops, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if report["sim_minstr_per_s"]:
        print(f"  (sim_minstr_per_s {report['sim_minstr_per_s']:.4g} Minstr/s, untraced passes)")
    for entry in predictions:
        verdict = "held" if entry["held"] else "NOT held"
        print(f"  prediction {verdict}: {entry['prediction']}")
    for op_id, problem in list(failures.items())[:10]:
        print(f"  FAILED {op_id}: {problem.splitlines()[0] if problem else ''}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
