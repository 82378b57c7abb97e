"""Seeded inputs and output oracles for the fell-lab benchmark workloads.

An op is one ``fell_lab.cli.main`` argument list together with the exit code
and the output the benchmark expects from it.  The expectations are derived
here from the generated inputs, never by running the program:

* ``sphere-scenario``: the twisted-sphere projection is exact, so every
  defect is within its tolerance, and its documented entries (diagonal
  weights ``1-|z|`` and ``|z|`` summing to the fiber trace) put the fullness
  floor in ``[0.5, 1]``.
* ``grid-verify``: every stored matrix is a rank-one orthogonal projection
  ``v v* / |v|^2`` written exactly Hermitian, so the self-adjointness defect
  is exactly 0 and the fullness floor is the minimum over points of the
  largest entry magnitude.  A perturbed file adds ``PERTURBATION`` to one
  off-diagonal entry, which makes the self-adjointness defect that amount.
* ``ktheory-solve``: each boundary matrix is ``U D V`` with ``U``, ``V``
  unimodular and ``D`` a chosen invariant-factor diagonal, so its kernel and
  cokernel, and hence both K-groups, follow from ``D`` alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("sphere-scenario", "grid-verify", "ktheory-solve")

# Op sizes cycle through these classes.  Three classes put the median op in
# the middle class, so the p50 does not jump between classes from run to run.
GRID_POINTS = (1000, 2000, 4000)
KTHEORY_SIZES = (10, 25, 40)
SPHERE_SAMPLES = 10000  # the scenario's default; only recorded, never passed

PERTURBATION = 1e-6
ALGEBRA_TOL = 1e-12

# ``scenarios.standard_wedge()``: the splice circle glued at 2.5 to the
# broken heart's bottom point.  The broken heart's charts follow the
# solenoid's single chart, so they are charts 1-3 here.
STANDARD_WEDGE = {
    "kind": "wedge",
    "left": {"kind": "solenoid_aab_ab"},
    "right": {"kind": "broken_heart"},
    "left_point": {"chart": 0, "coord": [2.5]},
    "right_point": {"chart": 0, "coord": [0.0]},
}

# Open strata of the standard wedge as (lo, hi, lifts), where ``lifts(t)``
# lists every member (chart, coordinate) of the fiber over the point at t.
WEDGE_STRATA: tuple[tuple[float, float, Callable], ...] = (
    (2.5, 3.0, lambda t: [(0, t)]),  # singly covered arc b, past the wedge point
    (0.0, 1.0, lambda t: [(2, t)]),  # left lobe
    (0.0, 1.0, lambda t: [(3, t)]),  # right lobe
    (0.0, 1.0, lambda t: [(0, t), (0, t + 1.0)]),  # doubly covered arc a
    (0.0, 2.0, lambda t: [(1, t), (2, 3.0 - t), (3, 3.0 - t)]),  # identified segment
)

CYCLE = {
    "sphere-scenario": 1,
    "grid-verify": len(GRID_POINTS),
    "ktheory-solve": len(KTHEORY_SIZES),
}


@dataclass
class Op:
    """One CLI call and what a correct program does with it."""

    argv: list[str]
    expect_rc: int
    check: Callable[[str], str | None]  # stdout -> complaint, None when correct
    size: int  # the op's size class: samples, stored points or matrix order


def make_op(workload: str, seed: int, i: int, path: Path) -> Op:
    """The ``i``-th op of a run; ``path`` is where its input file goes."""
    if workload == "sphere-scenario":
        return sphere_op(seed * 100_000 + i)
    rng = random.Random(seed * 1_000_003 + i)
    if workload == "grid-verify":
        n = GRID_POINTS[i % len(GRID_POINTS)]
        return grid_op(grid_file(n, perturbed=i % 4 == 3, rng=rng), path)
    if workload == "ktheory-solve":
        n = KTHEORY_SIZES[i % len(KTHEORY_SIZES)]
        return ktheory_op(ktheory_system(n, rng), path)
    raise ValueError(f"unknown workload {workload!r}")


def _write(data: dict, path: Path) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _json(out: str) -> dict | str:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"


# ---------------------------------------------------------------------------
# sphere-scenario
# ---------------------------------------------------------------------------

SPHERE_CHECKS = (
    ("idempotency_defect", "<= 1e-12"),
    ("selfadjoint_defect", "<= 1e-12"),
    ("fullness_floor", ">= 0.25"),
    ("branch_continuity_defect", "<= 1e-06"),
    ("fiber_trace_defect", "<= 1e-12"),
)


def sphere_op(scenario_seed: int) -> Op:
    def check(out: str) -> str | None:
        r = _json(out)
        if isinstance(r, str):
            return r
        if r.get("scenario") != "twisted-sphere" or r.get("parameters") != {
            "seed": scenario_seed
        }:
            return f"wrong scenario or parameters: {r.get('scenario')!r} {r.get('parameters')!r}"
        checks = r.get("checks", [])
        listed = tuple((c.get("name"), c.get("expected")) for c in checks)
        if listed != SPHERE_CHECKS:
            return f"unexpected checks {listed!r}"
        for c in checks:
            op, bound = c["expected"].split()
            value = float(c["actual"])
            if not (value >= float(bound) if op == ">=" else value <= float(bound)):
                return f"{c['name']} = {c['actual']} violates {c['expected']}"
            if c["passed"] is not True:
                return f"{c['name']} reported as failing"
            if c["name"] == "fullness_floor" and not 0.5 <= value <= 1.0:
                return f"fullness floor {value} outside [0.5, 1]"
        if r.get("passed") is not True:
            return "scenario reported as failing"
        return None

    argv = ["example", "twisted-sphere", "--json", "--param", f"seed={scenario_seed}"]
    return Op(argv, 0, check, SPHERE_SAMPLES)


# ---------------------------------------------------------------------------
# grid-verify
# ---------------------------------------------------------------------------


@dataclass
class GridFile:
    data: dict
    points: int
    perturbed: bool
    floor: float  # minimum over points of the largest entry magnitude


def _rank_one_projection(k: int, rng: random.Random) -> list[list[complex]]:
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(k)]
    norm2 = sum(abs(c) ** 2 for c in v)
    p = [[0j] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            p[a][b] = v[a] * v[b].conjugate() / norm2
            p[b][a] = p[a][b].conjugate()
        p[a][a] = complex(p[a][a].real, 0.0)
    return p


def grid_file(n: int, perturbed: bool, rng: random.Random) -> GridFile:
    """A grid element with ``n`` stored points over the standard wedge.

    Points go round-robin over the wedge's open strata (fiber sizes 1, 1, 1,
    2, 3), on a jittered grid per stratum so that no two share a base point,
    each given by a random lift.  A perturbed file shifts one off-diagonal
    entry of the first point with a fiber of size at least 2.
    """
    strata = len(WEDGE_STRATA)
    counts = [n // strata + (s < n % strata) for s in range(strata)]
    points = []
    for (lo, hi, lifts), count in zip(WEDGE_STRATA, counts):
        width = (hi - lo) / count
        for j in range(count):
            t = lo + (j + rng.uniform(0.05, 0.95)) * width
            fiber = lifts(t)
            lift_chart, coord = rng.choice(fiber)
            points.append((lift_chart, coord, _rank_one_projection(len(fiber), rng)))
    rng.shuffle(points)
    if perturbed:
        mat = next(m for _, _, m in points if len(m) >= 2)
        mat[0][1] += PERTURBATION
    floor = min(max(abs(e) for row in m for e in row) for _, _, m in points)
    data = {
        "model": STANDARD_WEDGE,
        "element": {
            "rule": "grid",
            "points": [
                {
                    "chart": chart,
                    "coord": [coord],
                    "matrix": [[[e.real, e.imag] for e in row] for row in m],
                }
                for chart, coord, m in points
            ],
        },
    }
    return GridFile(data, n, perturbed, floor)


def grid_op(grid: GridFile, path: Path) -> Op:
    # The check keeps only the expectation, not the file's data.
    points, perturbed, expected_floor = grid.points, grid.perturbed, grid.floor

    def check(out: str) -> str | None:
        r = _json(out)
        if isinstance(r, str):
            return r
        if r.get("samples_used") != points:
            return f"samples_used {r.get('samples_used')} != {points}"
        if r.get("continuity_defects") != []:
            return f"unexpected continuity defects {r.get('continuity_defects')!r}"
        floor = r.get("fullness_floor")
        if not isinstance(floor, float) or not math.isclose(floor, expected_floor, rel_tol=1e-12):
            return f"fullness floor {floor} != {expected_floor}"
        sa, idem = r.get("max_selfadjoint_defect"), r.get("max_idempotency_defect")
        if perturbed:
            if not isinstance(sa, float) or not math.isclose(sa, PERTURBATION, rel_tol=1e-6):
                return f"self-adjointness defect {sa} != {PERTURBATION}"
        else:
            if sa != 0.0:
                return f"self-adjointness defect {sa} != 0"
            if not isinstance(idem, float) or not idem <= ALGEBRA_TOL:
                return f"idempotency defect {idem} > {ALGEBRA_TOL}"
        return None

    argv = ["verify", _write(grid.data, path), "--json"]
    return Op(argv, 1 if perturbed else 0, check, points)


# ---------------------------------------------------------------------------
# ktheory-solve
# ---------------------------------------------------------------------------


def group_str(rank: int, torsion: list[int]) -> str:
    """The canonical group string printed by ``fell-lab ktheory solve``."""
    parts = [] if rank == 0 else ["Z" if rank == 1 else f"Z^{rank}"]
    parts += [f"Z/{d}" for d in torsion]
    return " ⊕ ".join(parts) if parts else "0"


def _scramble(a: list[list[int]], rng: random.Random) -> list[list[int]]:
    """``U a V`` for random unimodular U and V.

    Every row, in random order, gets +-1 times another row added; then every
    column likewise; then the rows are permuted.  One addition per line keeps
    the entries small and the SNF cost of one order steady.
    """
    n = len(a)
    if n < 2:
        return a

    def add_lines(m: list[list[int]]) -> list[list[int]]:
        for i in rng.sample(range(n), n):
            j = rng.randrange(n - 1)
            j += j >= i
            s = rng.choice((-1, 1))
            m[i] = [x + s * y for x, y in zip(m[i], m[j])]
        return [list(col) for col in zip(*m)]  # transposed, for the other side

    a = add_lines(add_lines(a))
    rng.shuffle(a)
    return a


def _invariant_factors(n: int, rng: random.Random) -> list[int]:
    """A divisibility chain d1 | d2 | ... that steps up by 2 or 3 at three
    random places (fewer at rank below 3), then 0 to 2 zeros."""
    rank = n - rng.randint(0, min(2, n))
    steps = set(rng.sample(range(rank), min(3, rank)))
    factors, d = [], 1
    for i in range(rank):
        if i in steps:
            d *= rng.choice((2, 3))
        factors.append(d)
    return factors + [0] * (n - rank)


@dataclass
class KSystem:
    data: dict
    expected: dict  # the CLI's JSON output


def ktheory_system(n: int, rng: random.Random) -> KSystem:
    """A two-strata system with n x n boundary matrices ``U D V``.

    kernel(A) is free of rank n - rank(D); cokernel(A) is free of that rank
    plus Z/d for each factor d >= 2.  The six-term solve then gives
    K0 = coker(delta1) + ker(delta0) and K1 = coker(delta0) + ker(delta1).
    """
    data = {"K0_I": {"rank": n}, "K1_I": {"rank": n}, "K0_Q": {"rank": n}, "K1_Q": {"rank": n}}
    torsion, free = {}, 0
    for name in ("delta0", "delta1"):
        factors = _invariant_factors(n, rng)
        a = _scramble([[factors[i] if i == j else 0 for j in range(n)] for i in range(n)], rng)
        data[name] = {"rows": n, "cols": n, "entries": [e for row in a for e in row]}
        torsion[name] = [d for d in factors if d >= 2]
        free += factors.count(0)  # n - rank, once as a kernel and once as a cokernel
    expected = {"K0": group_str(free, torsion["delta1"]), "K1": group_str(free, torsion["delta0"])}
    return KSystem(data, expected)


def ktheory_op(system: KSystem, path: Path) -> Op:
    expected = system.expected

    def check(out: str) -> str | None:
        r = _json(out)
        if isinstance(r, str):
            return r
        return None if r == expected else f"got {r!r}, expected {expected!r}"

    argv = ["ktheory", "solve", _write(system.data, path), "--json"]
    return Op(argv, 0, check, system.data["K0_I"]["rank"])
