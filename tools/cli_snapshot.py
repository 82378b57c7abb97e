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

    def span(stratum, lo, hi):
        return {"stratum": stratum, "lo": lo, "hi": hi}

    # The five-chart cover of the split-wedge base, as aab_ab_figure_cover() builds it.
    figure_cover = {"kind": "cover", "base": "aab_ab", "charts": [
        {"pieces": [span("b", 0.5, 1.0), {"vertex": "ab"}, span("a", 0.0, 0.5)]},
        {"pieces": [span("a", 0.5, 1.0), {"vertex": "ba"}, span("b", 0.0, 0.5)]},
        {"pieces": [span("a", 0.5, 1.0), {"vertex": "aa"}, span("a", 0.0, 0.5)]},
        {"pieces": [span("a", 0.1, 0.9)]},
        {"pieces": [span("b", 0.1, 0.9)]},
    ]}
    identity = {"rule": "builtin", "name": "identity"}

    def indicator(chart_boxes):
        """An indicator element whose region has one closed box per (chart, bounds)."""
        return {"rule": "indicator", "region": {"pieces": [
            {"chart": chart, "box": [{"lo": lo, "hi": hi} for lo, hi in zip(b[::2], b[1::2])]}
            for chart, b in chart_boxes
        ]}}

    def wedge_grid_with(changes):
        """The 300-point wedge grid with, per point index, its chart or its first entry replaced."""
        data = workloads.grid_file(300, False, random.Random(1)).data
        for i, (what, value) in changes.items():
            point = data["element"]["points"][i]
            if what == "chart":
                point["chart"] = value
            else:
                point["matrix"][0][0][0] = value
        return data

    pi = 3.141592653589793
    files = {
        "sphere-perturbed": {
            "model": {"kind": "twisted_sphere"},
            "element": {
                "rule": "builtin",
                "name": "twisted_sphere_projection",
                "params": {"perturb_first_diag": 1e-6},
            },
        },
        # A builtin parameter its constructor does not declare.
        "sphere-misspelled-param": {
            "model": {"kind": "twisted_sphere"},
            "element": {
                "rule": "builtin",
                "name": "twisted_sphere_projection",
                "params": {"perturb_frist_diag": 1e-3},
            },
        },
        "identity-param": {
            "model": {"kind": "twisted_sphere"},
            "element": {
                "rule": "builtin",
                "name": "identity",
                "params": {"perturb_first_diag": 1e-3},
            },
        },
        # A model key its class does not declare.
        "sphere-misspelled-model-key": {
            "model": {"kind": "twisted_sphere", "equator_thta": 0.9},
            "element": {"rule": "builtin", "name": "twisted_sphere_projection"},
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
        "cover-identity": {"model": figure_cover, "element": identity},
        # The unit interval covered 1, 2, 3 and 4 times on its four quarters.
        "quarters-cover-identity": {
            "model": {"kind": "cover", "base": "interval", "charts": [
                {"pieces": [dict(span("x", lo, 1.0), lo_closed=lo == 0.0, hi_closed=True)]}
                for lo in (0.0, 0.25, 0.5, 0.75)]},
            "element": identity,
        },
        # A vertex piece with a span's key.
        "cover-misspelled-piece-key": {
            "model": {"kind": "cover", "base": "aab_ab",
                      "charts": [{"pieces": [{"vertex": "ab", "lo": 0.0}]}]},
            "element": identity,
        },
        # Glued on the sphere's equator, where every point is a branch point.
        "wedge-sphere-equator": {
            "model": {"kind": "wedge", "left": {"kind": "solenoid_aab_ab"},
                      "right": {"kind": "twisted_sphere"},
                      "left_point": {"chart": 0, "coord": [2.5]},
                      "right_point": {"chart": 0, "coord": [0.5, 0.0]}},
            "element": identity,
        },
        # Regions checked against the model's maps: two equator points that
        # are not separated and two lifts of one fiber over a thin arc are
        # rejected; the second lift of the split point ab is accepted with
        # ba, from which it is separated, and rejected with aa.
        "sphere-equator-boxes": {
            "model": {"kind": "twisted_sphere"},
            "element": indicator([(0, (0.01, 0.03, -0.005, 0.005)),
                                  (0, (pi + 0.01, pi + 0.03, -0.005, 0.005))]),
        },
        "solenoid-thin-boxes": {
            "model": {"kind": "solenoid_aab_ab"},
            "element": indicator([(0, (0.1, 0.1005)), (0, (1.1, 1.1005))]),
        },
        "cover-second-lift-of-ab": {
            "model": dict(figure_cover, charts=figure_cover["charts"] + [
                {"pieces": [span("b", 0.6, 1.0), {"vertex": "ab"}, span("a", 0.0, 0.4)]}]),
            "element": indicator([(5, (0.4, 0.4)), (1, (0.5, 0.5))]),
        },
        "cover-second-lift-of-ab-with-aa": {
            "model": dict(figure_cover, charts=figure_cover["charts"] + [
                {"pieces": [span("b", 0.6, 1.0), {"vertex": "ab"}, span("a", 0.0, 0.4)]}]),
            "element": indicator([(5, (0.4, 0.4)), (2, (0.5, 0.5))]),
        },
        # On the solenoid, arcs out of ab and out of ba, which are separated,
        # and arcs out of ab and out of aa, which are not.
        "solenoid-ab-ba-arcs": {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {"rule": "indicator", "region": {"pieces": [
                {"chart": 0, "box": [{"lo": lo, "hi": lo + 0.2, "hi_closed": False}]}
                for lo in (0.0, 2.0)]}},
        },
        "solenoid-ab-aa-boxes": {
            "model": {"kind": "solenoid_aab_ab"},
            "element": indicator([(0, (0.0, 0.2)), (0, (1.0, 1.2))]),
        },
        # Inputs that exit 2: a cover that leaves x = 0.5 in no chart, a span
        # past the ends of its base, a chart that holds a point twice, a grid
        # with no points and a region piece on a chart that the model does
        # not have.
        "cover-gap-at-half": {
            "model": {"kind": "cover", "base": "interval", "charts": [
                {"pieces": [dict(span("x", 0.0, 0.5), lo_closed=True)]},
                {"pieces": [dict(span("x", 0.5, 1.0), hi_closed=True)]}]},
            "element": identity,
        },
        "cover-span-outside-base": {
            "model": {"kind": "cover", "base": "interval", "charts": [
                {"pieces": [dict(span("x", 0.0, 1.0), lo_closed=True, hi_closed=True)]},
                {"pieces": [span("x", -1.0, 2.0)]}]},
            "element": identity,
        },
        # One chart that holds x in (0.4, 0.6) twice, at chart coordinates s and s + 0.2.
        "cover-chart-holds-point-twice": {
            "model": {"kind": "cover", "base": "interval", "charts": [
                {"pieces": [dict(span("x", 0.0, 0.6), lo_closed=True),
                            dict(span("x", 0.4, 1.0), hi_closed=True)]}]},
            "element": identity,
        },
        "grid-no-points": {"model": {"kind": "solenoid_aab_ab"},
                           "element": {"rule": "grid", "points": []}},
        # One-point grids that exit 1: a @ a - a is infinite at 1e200, so the
        # defect is NaN (`null`), and finite at 1e100 though its square is not.
        "grid-square-infinite": {"model": {"kind": "solenoid_aab_ab"}, "element": {
            "rule": "grid", "points": [{"chart": 0, "coord": [2.5], "matrix": [[[1e200, 0.0]]]}]}},
        "grid-square-finite": {"model": {"kind": "solenoid_aab_ab"}, "element": {
            "rule": "grid", "points": [{"chart": 0, "coord": [2.5], "matrix": [[[1e100, 0.0]]]}]}},
        "region-unknown-chart": {"model": {"kind": "solenoid_aab_ab"},
                                 "element": indicator([(7, (0.1, 0.2))])},
        "wedge-grid": workloads.grid_file(300, False, random.Random(1)).data,
        # Grid files read 256 points at a time that exit 2: a bad entry in the
        # second chunk; the same with a point of the first chunk on a chart the
        # wedge lacks, which is met first; a chart that is a float; a
        # coordinate past the float range, as the file writes it.
        "wedge-grid-true-at-280": wedge_grid_with({280: ("entry", True)}),
        "wedge-grid-chart-9-at-10-string-at-280": wedge_grid_with({10: ("chart", 9), 280: ("entry", "1.0")}),
        "grid-chart-float": {"model": {"kind": "solenoid_aab_ab"}, "element": {
            "rule": "grid", "points": [{"chart": 0.0, "coord": [2.5], "matrix": [[[1.0, 0.0]]]}]}},
        "grid-coord-1e400": '{"model": {"kind": "solenoid_aab_ab"}, "element": {"rule": "grid", '
                            '"points": [{"chart": 0, "coord": [1e400], "matrix": [[[1.0, 0.0]]]}]}}',
        "wedge-grid-perturbed": workloads.grid_file(300, True, random.Random(2)).data,
        "ktheory-10": workloads.ktheory_system(10, random.Random(3)).data,
        "ktheory-25": workloads.ktheory_system(25, random.Random(4)).data,
        "ktheory-40": workloads.ktheory_system(40, random.Random(5)).data,
        # Rectangular: the splice system's delta0 is 2 x 3.
        "ktheory-splice": {
            "K0_I": {"rank": 0},
            "K1_I": {"rank": 2},
            "K0_Q": {"rank": 3},
            "K1_Q": {"rank": 0},
            "delta0": {"rows": 2, "cols": 3, "entries": [-1, 1, 0, 1, -1, 0]},
        },
        # The same system with delta0 under a key the system does not declare.
        "ktheory-splice-misspelled": {
            "K0_I": {"rank": 0},
            "K1_I": {"rank": 2},
            "K0_Q": {"rank": 3},
            "K1_Q": {"rank": 0},
            "delta_0": {"rows": 2, "cols": 3, "entries": [-1, 1, 0, 1, -1, 0]},
        },
    }
    where.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in files.items():
        path = where / f"{name}.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
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
    out.append(("example-pinch-m40-k10-json",
                ["example", "pinch", "--json", "--param", "m=40", "--param", "k=10"]))
    out.append(("example-twisted-sphere-tol-json",
                ["example", "twisted-sphere", "--json",
                 "--param", "tol=1e-13", "--param", "samples=3000"]))
    out.append(("verify-sphere-perturbed-json",
                ["verify", files["sphere-perturbed"], "--samples", "2000", "--json"]))
    out.append(("verify-sphere-perturbed-text",
                ["verify", files["sphere-perturbed"], "--samples", "2000"]))
    for name in ("sphere-misspelled-param", "identity-param", "sphere-misspelled-model-key"):
        out.append((f"verify-{name}-json", ["verify", files[name], "--samples", "2000", "--json"]))
    out.append(("verify-aab-ab-indicator-json", ["verify", files["aab-ab-indicator"], "--json"]))
    for name in ("cover-identity", "cover-misspelled-piece-key"):
        out.append((f"verify-{name}-json", ["verify", files[name], "--json"]))
    out.append(("verify-quarters-cover-identity-json",
                ["verify", files["quarters-cover-identity"], "--samples", "3000", "--json"]))
    out.append(("verify-wedge-grid-json", ["verify", files["wedge-grid"], "--json"]))
    out.append(("verify-wedge-sphere-equator-json",
                ["verify", files["wedge-sphere-equator"], "--samples", "2000", "--json"]))
    out.append(("verify-wedge-grid-perturbed-json",
                ["verify", files["wedge-grid-perturbed"], "--json"]))
    for name in ("sphere-equator-boxes", "solenoid-thin-boxes", "cover-second-lift-of-ab",
                 "grid-square-infinite", "grid-square-finite", "cover-second-lift-of-ab-with-aa",
                 "solenoid-ab-ba-arcs", "solenoid-ab-aa-boxes"):
        out.append((f"verify-{name}-json", ["verify", files[name], "--json"]))
    for name in ("cover-gap-at-half", "cover-span-outside-base", "cover-chart-holds-point-twice",
                 "grid-no-points", "region-unknown-chart", "wedge-grid-true-at-280",
                 "wedge-grid-chart-9-at-10-string-at-280", "grid-chart-float", "grid-coord-1e400"):
        out.append((f"verify-{name}-json", ["verify", files[name], "--json"]))
    for name in ("ktheory-10", "ktheory-25", "ktheory-40", "ktheory-splice",
                 "ktheory-splice-misspelled"):
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
