"""Self-test: show that the benchmark's checks fail when they should.

    python3 perfbench/selftest.py

A gate that has only ever reported zero defects is unverified, so this
script breaks the benchmark's inputs on purpose and asserts a failing
run each time:

1. corrupted goldens: one crash cell's digest is altered and another
   cell's expected classification is flipped (crash_campaign), and one
   job digest is altered (figure_sweep).  Each run must exit non-zero
   and report ``failed / attempted > 0`` naming the broken operations;
2. a ``BENCHMARK.json`` that omits a metric the run reports: the run
   must exit non-zero without printing a result;
3. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   program source): the run must exit non-zero without a result.

Everything it writes goes under ``.perfbench/selftest/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / "selftest"


def _run(args, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def corrupted_goldens() -> list:
    """Run two workloads against deliberately wrong goldens."""
    problems = []
    goldens = WORK / "goldens"
    shutil.rmtree(goldens, ignore_errors=True)
    shutil.copytree(HERE / "goldens", goldens)

    crash = json.loads((goldens / "crash_campaign.json").read_text())
    cells = [k for k, v in crash["ops"].items() if isinstance(v, list)]
    digest_victim, class_victim = cells[0], cells[-1]
    crash["ops"][digest_victim][1] = "0" * len(crash["ops"][digest_victim][1])
    flipped = "silent_corruption" if crash["ops"][class_victim][0] != "silent_corruption" else "recovered"
    crash["ops"][class_victim][0] = flipped
    (goldens / "crash_campaign.json").write_text(json.dumps(crash))

    figure = json.loads((goldens / "figure_sweep.json").read_text())
    job_victim = sorted(figure["ops"])[0]
    figure["ops"][job_victim] = "f" * len(figure["ops"][job_victim])
    (goldens / "figure_sweep.json").write_text(json.dumps(figure))

    cases = (
        ("crash_campaign", (digest_victim, class_victim)),
        ("figure_sweep", (job_victim,)),
    )
    for workload, victims in cases:
        proc = _run(["--workload", workload, "--trace", "0", "--goldens", str(goldens)])
        result = _result(proc)
        failed = result.get("failed", 0)
        attempted = result.get("attempted", 0)
        ratio = failed / attempted if attempted else 0.0
        print(f"corrupted goldens, {workload}: exit {proc.returncode}, "
              f"fail_ratio {failed}/{attempted} = {ratio:.5f}")
        if proc.returncode == 0:
            problems.append(f"{workload}: run passed against corrupted goldens")
        if not ratio > 0 or result.get("correct", True):
            problems.append(f"{workload}: fail_ratio stayed 0 / correct stayed true")
        for victim in victims:
            if f"{victim}: differs from its golden" not in proc.stdout:
                problems.append(f"{workload}: the corrupted op {victim} was not reported")
    return problems


def undeclared_metric() -> list:
    """A spec missing a metric the run reports must fail the run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dropped = spec["end_to_end"].pop()["name"]
    path = WORK / "BENCHMARK.json"
    path.write_text(json.dumps(spec))
    proc = _run(["--workload", "sensitivity_pool", "--trace", "0", "--spec", str(path)])
    print(f"spec without {dropped!r}: exit {proc.returncode}: {proc.stderr.strip()}")
    problems = []
    if proc.returncode == 0 or _result(proc):
        problems.append(f"a run reporting undeclared metric {dropped!r} did not fail")
    if dropped not in proc.stderr:
        problems.append(f"the failure does not name {dropped!r}")
    return problems


def no_program() -> list:
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "figure_sweep", "--seed", "1", "--trace", "0"], cwd=bare)
    print(f"no program source: exit {proc.returncode}: {proc.stderr.strip()}")
    if proc.returncode == 0 or _result(proc):
        return ["a run without program source printed a result or exited 0"]
    return []


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    problems = corrupted_goldens() + undeclared_metric() + no_program()
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks fail when they should"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
