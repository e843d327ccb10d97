"""Regenerate the goldens the benchmark checks outputs against.

    python3 perfbench/make_goldens.py [workload ...]

Runs one untraced pass of each workload at its default seed (2020 for
the profile traces, 3 for the stream trace; the crash grid has none)
and stores every operation's output digest under
``perfbench/goldens/<workload>.json``.  Regenerate only when a change is
*meant* to alter simulated results; the file records the code and
generator versions it was made at.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens"


def make(workload: str) -> int:
    out_root = ROOT / ".perfbench" / "tmp"
    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out = Path(tmp) / "pass.json"
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "one_pass.py"),
                "--workload", workload,
                "--goldens", str(Path(tmp) / "none"),
                "--scratch", tmp,
                "--out", str(out),
                "--spawned-at", repr(time.monotonic()),
            ],
            cwd=ROOT,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(out.read_text())
    if result["failures"]:
        print(f"{workload}: refusing to record goldens with failures: "
              f"{list(result['failures'].items())[:5]}", file=sys.stderr)
        return 1
    GOLDENS.mkdir(exist_ok=True)
    golden = {
        "workload": workload,
        "seed": result["seed"],
        "code_version": result["versions"]["code_version"],
        "generator_version": result["versions"]["generator_version"],
        "ops": dict(sorted(result["ops"].items())),
    }
    path = GOLDENS / f"{workload}.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{workload}: {len(golden['ops'])} goldens -> {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = (argv if argv else sys.argv[1:]) or list(WORKLOADS)
    return max(make(name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
