"""Snapshot the command line's observable output over a fixed case list.

Each case is one argument list for ``fell_lab.cli.main``, run in-process.
For each case the snapshot directory gets one file holding the exit code,
the first line of stderr and the whole of stdout.  Two snapshots taken from
two source trees compare with ``diff -r``; a refactor that claims unchanged
behaviour should show no difference.

Usage:

    python tools/cli_snapshot.py OUT_DIR [--src SRC_DIR]

``--src`` names the ``src/`` directory whose ``fell_lab`` is imported
(default: this checkout's).  The input files come from the generators in
``perfbench/workloads.py`` at fixed seeds and are written under
``OUT_DIR/inputs``, so snapshots of two trees taken with the same copy of
this script read identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = ("aab-ab", "broken-heart", "broken-heart-wedge", "twisted-sphere", "pinch")


def input_files(where: Path) -> dict[str, str]:
    """Write the input files of the ``verify`` and ``ktheory`` cases."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    files = {
        "sphere-perturbed": {
            "model": {"kind": "twisted_sphere"},
            "element": {
                "rule": "builtin",
                "name": "twisted_sphere_projection",
                "params": {"perturb_first_diag": 1e-6},
            },
        },
        "aab-ab-indicator": {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {
                "rule": "indicator",
                "region": {
                    "pieces": [
                        {"chart": 0, "box": [{"lo": 1.0, "hi": 2.0, "hi_closed": False}]}
                    ]
                },
            },
        },
        "wedge-grid": workloads.grid_file(300, False, random.Random(1)).data,
        "wedge-grid-perturbed": workloads.grid_file(300, True, random.Random(2)).data,
        "ktheory-10": workloads.ktheory_system(10, random.Random(3)).data,
        "ktheory-25": workloads.ktheory_system(25, random.Random(4)).data,
    }
    where.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in files.items():
        path = where / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(path)
    return paths


def cases(files: dict[str, str]) -> list[tuple[str, list[str]]]:
    out = []
    for name in SCENARIOS:
        for seed in (0, 1, 7):
            out.append((f"example-{name}-seed{seed}-json",
                        ["example", name, "--json", "--param", f"seed={seed}"]))
        out.append((f"example-{name}-text", ["example", name]))
    out.append(("example-pinch-m5-k4-json",
                ["example", "pinch", "--json", "--param", "m=5", "--param", "k=4"]))
    out.append(("example-twisted-sphere-tol-json",
                ["example", "twisted-sphere", "--json",
                 "--param", "tol=1e-13", "--param", "samples=3000"]))
    out.append(("verify-sphere-perturbed-json",
                ["verify", files["sphere-perturbed"], "--samples", "2000", "--json"]))
    out.append(("verify-sphere-perturbed-text",
                ["verify", files["sphere-perturbed"], "--samples", "2000"]))
    out.append(("verify-aab-ab-indicator-json", ["verify", files["aab-ab-indicator"], "--json"]))
    out.append(("verify-wedge-grid-json", ["verify", files["wedge-grid"], "--json"]))
    out.append(("verify-wedge-grid-perturbed-json",
                ["verify", files["wedge-grid-perturbed"], "--json"]))
    for name in ("ktheory-10", "ktheory-25"):
        out.append((f"{name}-json", ["ktheory", "solve", files[name], "--json"]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory for the snapshot files")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree whose fell_lab is run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    from fell_lab import cli

    files = input_files(args.out / "inputs")
    for name, case_argv in cases(files):
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(case_argv)
            first_err = stderr.getvalue().partition("\n")[0]
        except Exception as exc:  # an escaped exception is an outcome to record
            rc, first_err = "traceback", f"{type(exc).__name__}: {exc}"
        (args.out / f"{name}.txt").write_text(
            f"exit: {rc}\nstderr: {first_err}\n--- stdout\n{stdout.getvalue()}",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
