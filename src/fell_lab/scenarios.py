"""Named end-to-end scenarios: build a model, construct elements, verify,
compute K-groups, and compare everything against stored expected values.

Each scenario returns a structured result whose checks carry a ``source``
tag: "stored" for pinned expected data and "derived" for values recomputed
by an independent route inside the scenario (e.g. the boundary-matrix
generator against the stored matrix, or the pinch six-term oracle against
the closed formula).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from . import spaces
from .conv import (
    ALGEBRA_TOL,
    CONTINUITY_TOL,
    Interval,
    Region,
    RegionPiece,
    check_branch_continuity,
    evaluate,  # still importable from here, as before
    fiber_stacks,
    indicator_projection,
    restrict,
    twisted_sphere_projection,
    verify_projection,
)
from .ktheory import (
    EdgeStratum,
    FgAbGroup,
    IntMatrix,
    OneDStratified,
    TwoStrataSES,
    duality_check,
    k_homology,
    pinch_k_theory,
    pinch_strata_oracle,
    solve_six_term,
    vertex_class_boundary,
)
from .spaces import (
    BrokenHeart,
    ParameterError,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    TwistedSphere,
    approach_sequences,
    read_json,
    sample_base_points,
    wedge,
    write_json,
)

class UnknownScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    parameters: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    expected: str
    actual: str
    source: str = "stored"


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    parameters: dict[str, Any]
    checks: tuple[Check, ...]
    flags: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.name,
            "parameters": self.parameters,
            "passed": self.passed,
            "flags": list(self.flags),
            "checks": write_json(self.checks),
        }

    def text(self) -> str:
        lines = [f"scenario: {self.name}"]
        if self.parameters:
            lines.append(
                "parameters: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            )
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"  {status} {c.name}: {c.actual} (expected {c.expected}; {c.source})"
            )
        for flag in self.flags:
            lines.append(f"  flag: {flag}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Stored data for the example families
# ---------------------------------------------------------------------------

# Boundary matrix of the two-circle splice space; rows are the edges (a, b),
# columns the split points (ab, ba, aa).  Edge-end orientations are the
# convention-dependent choice that reproduces this matrix.
SPLICE_BOUNDARY = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])

SPLICE_INCIDENCE = OneDStratified(
    edges=(
        EdgeStratum.make("a", 2, tail={"ab": 1, "aa": 1}, head={"aa": 1, "ba": 1}),
        EdgeStratum.make("b", 1, tail={"ba": 1}, head={"ab": 1}),
    ),
    vertex_classes=("ab", "ba", "aa"),
)

SPLICE_SES = TwoStrataSES(
    K0_I=FgAbGroup(0),
    K1_I=FgAbGroup(2),
    K0_Q=FgAbGroup(3),
    K1_Q=FgAbGroup(0),
    delta0=SPLICE_BOUNDARY,
    delta1=IntMatrix.zero(0, 0),
)

# Broken heart: ideal over the identified open segment, quotient over the
# closed two-lobe arc; the boundary map is an isomorphism (stored as [[1]];
# the opposite sign yields the same K-groups).
HEART_SES = TwoStrataSES(
    K0_I=FgAbGroup(0),
    K1_I=FgAbGroup(1),
    K0_Q=FgAbGroup(1),
    K1_Q=FgAbGroup(0),
    delta0=IntMatrix.from_rows([[1]]),
    delta1=IntMatrix.zero(0, 0),
)

# The section of the outer circle through the split point aa, as chart
# coordinates of the covering circle: theta in [1, 2).
A_CIRCLE_REGION = Region(
    (RegionPiece(chart=0, box=(Interval(1.0, 2.0, True, False),)),)
)


def standard_wedge() -> spaces.WedgeModel:
    """The wedge of the splice circle (at an interior point of the singly
    covered arc) with the broken heart (at its bottom point)."""
    return wedge(
        SolenoidAabAb(),
        BrokenHeart(),
        PointRef(0, (2.5,)),
        PointRef(0, (0.0,)),
    )


def _equal(name: str, actual: Any, expected: Any, source: str = "stored") -> Check:
    return Check(name, actual == expected, str(expected), str(actual), source)


def _bound(name: str, value: float, bound: float, source: str = "derived") -> Check:
    return Check(name, value <= bound, f"<= {bound:g}", f"{value:.3e}", source)


# ---------------------------------------------------------------------------
# Scenario implementations
# ---------------------------------------------------------------------------


_Outcome = tuple[list[Check], tuple[str, ...]]  # checks in report order, flags


def _run_aab_ab(p: dict) -> _Outcome:
    generated = vertex_class_boundary(SPLICE_INCIDENCE)
    k0, k1 = solve_six_term(SPLICE_SES)
    k0h, k1h = k_homology(SPLICE_SES.delta0)
    dual = duality_check(k0, k1, k0h, k1h)
    model = SolenoidAabAb()
    ind = indicator_projection(model, A_CIRCLE_REGION)
    rep = verify_projection(ind, sample_base_points(model, p["samples"], seed=p["seed"]))
    checks = [
        _equal("boundary_generator", generated.to_rows(), SPLICE_BOUNDARY.to_rows(), "derived"),
        _equal("K0", k0, FgAbGroup(2)),
        _equal("K1", k1, FgAbGroup(1)),
        _equal("K0_dual", k0h, FgAbGroup(2)),
        _equal("K1_dual", k1h, FgAbGroup(1)),
        _equal("even_self_dual", dual.even_self_dual, True),
        _equal("odd_self_dual_rationally", dual.odd_self_dual_rationally, False),
        _bound("indicator_idempotency_defect", rep.max_idempotency_defect, 0.0),
        _bound("indicator_selfadjoint_defect", rep.max_selfadjoint_defect, 0.0),
        Check("indicator_not_full", rep.fullness_floor == 0.0, "fullness floor 0",
              f"{rep.fullness_floor:g}", "derived"),
    ]
    return checks, ("has nonzero projection", "projection is not full")


def _run_broken_heart(p: dict) -> _Outcome:
    k0, k1 = solve_six_term(HEART_SES)
    flags = ("no nonzero projections",) if k0.is_trivial else ()
    return [_equal("K0", k0, FgAbGroup(0)), _equal("K1", k1, FgAbGroup(0))], flags


def _run_broken_heart_wedge(p: dict) -> _Outcome:
    model = standard_wedge()
    ind = indicator_projection(model, A_CIRCLE_REGION)
    rep = verify_projection(ind, sample_base_points(model, p["samples"], seed=p["seed"]))
    rho = restrict(ind, "right")
    heart_samples = sample_base_points(BrokenHeart(), max(p["samples"] // 2, 1), seed=p["seed"])
    worst = max(float(abs(stack).max()) for _, stack in fiber_stacks(rho, heart_samples))
    checks = [
        _bound("idempotency_defect", rep.max_idempotency_defect, 0.0),
        _bound("selfadjoint_defect", rep.max_selfadjoint_defect, 0.0),
        _bound("restriction_to_heart_vanishes", worst, 0.0),
        Check("fullness_floor", rep.fullness_floor == 0.0, "0", f"{rep.fullness_floor:g}", "derived"),
    ]
    return checks, ("has nonzero projection", "no full projection")


def _run_twisted_sphere(p: dict) -> _Outcome:
    tol = p["tol"]
    model = TwistedSphere()
    proj = twisted_sphere_projection(model)
    samples = sample_base_points(model, p["samples"], seed=p["seed"])
    rep = verify_projection(proj, samples)
    seqs = approach_sequences(model, "equator", 16, 0.01)
    defects = check_branch_continuity(proj, seqs)
    trace_err = 0.0
    for block, stack in fiber_stacks(proj, samples[:: max(len(samples) // 500, 1)]):
        expected_trace = {4: 2.0, 2: 2.0, 1: 1.0}[block.size]
        trace_err = max(trace_err, float(abs(stack.trace(axis1=1, axis2=2) - expected_trace).max()))
    checks = [
        _bound("idempotency_defect", rep.max_idempotency_defect, tol),
        _bound("selfadjoint_defect", rep.max_selfadjoint_defect, tol),
        Check("fullness_floor", rep.fullness_floor >= 0.25, ">= 0.25", f"{rep.fullness_floor:g}",
              "derived"),
        _bound("branch_continuity_defect", max(d.defect for d in defects), CONTINUITY_TOL),
        _bound("fiber_trace_defect", trace_err, tol),
    ]
    return checks, ("has full projection (numerical witness)",)


def _run_pinch(p: dict) -> _Outcome:
    m, k = p["m"], p["k"]
    oracle = pinch_strata_oracle(m, k)  # first: it rejects m < 0 and k < 2
    formula = pinch_k_theory((FgAbGroup(1), FgAbGroup(1)), (FgAbGroup(m), FgAbGroup(0)), k)
    model = PinchCircle(
        split_points=tuple((i + 1.0) / (m + 1.0) for i in range(m)), sheets=k
    )
    sizes = {b.size for b in spaces.resolve_orbits(model, sample_base_points(model, 60, seed=p["seed"]))}
    expected = (1, k) if m else (k,)  # with no split points every fiber has k members
    checks = [
        Check("fiber_sizes", sizes == set(expected), "{" + ", ".join(map(str, expected)) + "}",
              str(sorted(sizes)), "derived"),
        Check("strata_oracle_matches_formula", oracle == formula, f"({formula[0]}, {formula[1]})",
              f"({oracle[0]}, {oracle[1]})", "derived"),
        _equal("K0", formula[0], FgAbGroup(1 + m * (k - 1))),
        _equal("K1", formula[1], FgAbGroup(1)),
    ]
    return checks, ()


class _Scenario(NamedTuple):
    run: Callable[[dict], _Outcome]
    parameters: dict[str, int | float]  # every parameter the runner reads, with its default
    echo: tuple[str, ...] | None = None  # report these resolved values, not the given ones


_SCENARIOS = {
    "aab-ab": _Scenario(_run_aab_ab, {"samples": 600, "seed": 0}),
    "broken-heart": _Scenario(_run_broken_heart, {"seed": 0}),
    "broken-heart-wedge": _Scenario(_run_broken_heart_wedge, {"samples": 800, "seed": 0}),
    "twisted-sphere": _Scenario(
        _run_twisted_sphere, {"samples": 10000, "tol": ALGEBRA_TOL, "seed": 0}
    ),
    "pinch": _Scenario(_run_pinch, {"m": 3, "k": 2, "seed": 0}, echo=("m", "k")),
}

SCENARIO_NAMES = tuple(_SCENARIOS)

def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute a named scenario pipeline and compare against stored values.

    Raises ``UnknownScenarioError`` for an unknown name and ``ParameterError``
    for a parameter the scenario does not read or a value not of its
    default's kind (an integer, or a finite number for a float default).
    """
    try:
        scenario = _SCENARIOS[spec.name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {spec.name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        ) from None
    for key in spec.parameters:
        if key not in scenario.parameters:
            raise ParameterError(
                f"scenario {spec.name!r} has no parameter {key!r}; "
                f"it reads {', '.join(scenario.parameters)}"
            )
    p = {
        key: read_json(type(default), spec.parameters.get(key, default), f"parameter {key!r}")
        for key, default in scenario.parameters.items()
    }
    checks, flags = scenario.run(p)
    echo = dict(spec.parameters) if scenario.echo is None else {k: p[k] for k in scenario.echo}
    return ScenarioResult(spec.name, echo, tuple(checks), flags)
