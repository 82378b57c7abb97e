"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every tolerance is pinned here.
"""

import math
import random
import time

import numpy as np
import pytest

from fell_lab.conv import (
    adjoint,
    check_branch_continuity,
    evaluate,
    grid_element,
    indicator_projection,
    product,
    restrict,
    twisted_sphere_projection,
    verify_fullness_witness,
    verify_projection,
)
from fell_lab.ktheory import (
    FgAbGroup,
    IntMatrix,
    cokernel,
    determinant,
    duality_check,
    k_homology,
    kernel,
    pinch_k_theory,
    pinch_strata_oracle,
    smith_normal_form,
    solve_six_term,
    vertex_class_boundary,
)
from fell_lab.scenarios import (
    HEART_SES,
    SPLICE_BOUNDARY,
    SPLICE_INCIDENCE,
    SPLICE_SES,
    ScenarioSpec,
    run_scenario,
    standard_wedge,
    A_CIRCLE_REGION,
)
from fell_lab.spaces import (
    BrokenHeart,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    TwistedSphere,
    approach_sequences,
    qkey,
    resolve_orbit,
    sample_base_points,
)


def report(number: int, description: str, passed: bool) -> None:
    print(f"CRITERION {number} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_1_splice_k_theory_exact_and_fast():
    k0, k1 = solve_six_term(SPLICE_SES)
    exact = (k0, k1) == (FgAbGroup(2), FgAbGroup(1))
    best = math.inf
    for _ in range(20):
        t0 = time.perf_counter()
        solve_six_term(SPLICE_SES)
        best = min(best, time.perf_counter() - t0)
    report(
        1,
        f"splice six-term solve gives (Z^2, Z) exactly in {best * 1e6:.0f} us",
        exact and best < 1e-3,
    )


def test_criterion_2_splice_k_homology_and_duality():
    k0h, k1h = k_homology(SPLICE_BOUNDARY)
    dual = duality_check(FgAbGroup(2), FgAbGroup(1), k0h, k1h)
    ok = (
        (k0h, k1h) == (FgAbGroup(2), FgAbGroup(1))
        and dual.even_self_dual is True
        and dual.odd_self_dual_rationally is False
    )
    report(2, "dual K-groups are (Z^2, Z); even self-dual, not odd rationally", ok)


def test_criterion_3_boundary_generator():
    generated = vertex_class_boundary(SPLICE_INCIDENCE)
    report(
        3,
        f"generated boundary matrix {generated.to_rows()} matches stored data",
        generated == SPLICE_BOUNDARY,
    )


def test_criterion_4_broken_heart():
    k0, k1 = solve_six_term(HEART_SES)
    result = run_scenario(ScenarioSpec("broken-heart"))
    ok = (
        (k0, k1) == (FgAbGroup(0), FgAbGroup(0))
        and result.passed
        and "no nonzero projections" in result.flags
    )
    report(4, "broken heart K-groups vanish and the scenario flags it", ok)


def test_criterion_5_twisted_sphere_full_verification():
    t0 = time.perf_counter()
    model = TwistedSphere()
    p = twisted_sphere_projection(model)
    samples = sample_base_points(model, 10000, seed=0)
    assert len(samples) >= 10000
    keys = {qkey(x) for x in samples}
    named = model.named_points()
    assert qkey(named["north_pole"]) in keys
    assert qkey(named["south_pole"]) in keys
    assert qkey(named["equator_rep"]) in keys

    rep = verify_projection(p, samples)
    floor = rep.fullness_floor
    seqs = approach_sequences(model, "equator", 16, 0.01)
    continuity = max(d.defect for d in check_branch_continuity(p, seqs, tol=1e-6))

    trace_defect = 0.0
    for x in samples:
        mat = evaluate(p, x)
        expected = {4: 2.0, 2: 2.0, 1: 1.0}[mat.size]
        trace_defect = max(trace_defect, abs(mat.trace() - expected))

    elapsed = time.perf_counter() - t0
    ok = (
        rep.max_idempotency_defect <= 1e-12
        and rep.max_selfadjoint_defect <= 1e-12
        and floor >= 0.25
        and continuity <= 1e-6
        and trace_defect <= 1e-12
        and elapsed <= 5.0
    )
    report(
        5,
        (
            f"sphere projection over {rep.samples_used} samples: "
            f"idem {rep.max_idempotency_defect:.1e}, sa {rep.max_selfadjoint_defect:.1e}, "
            f"floor {floor:g}, continuity {continuity:.1e}, traces {trace_defect:.1e}, "
            f"{elapsed:.2f}s"
        ),
        ok,
    )


def test_criterion_6_wedge_indicator():
    model = standard_wedge()
    ind = indicator_projection(model, A_CIRCLE_REGION)
    samples = sample_base_points(model, 1000, seed=0)
    rep = verify_projection(ind, samples)

    rho = restrict(ind, "right")
    heart_samples = sample_base_points(BrokenHeart(), 500, seed=1)
    restriction_max = max(evaluate(rho, x).max_abs() for x in heart_samples)
    floor = verify_fullness_witness(ind, samples)
    ok = (
        rep.max_idempotency_defect == 0.0
        and rep.max_selfadjoint_defect == 0.0
        and restriction_max == 0.0
        and floor == 0.0
    )
    report(
        6,
        (
            "wedge indicator verifies exactly, restricts to zero over the "
            f"second factor, fullness floor {floor:g}"
        ),
        ok,
    )


def test_criterion_7_pinch_oracle_agreement():
    circle = (FgAbGroup(1), FgAbGroup(1))
    agree = all(
        pinch_strata_oracle(m, k)
        == pinch_k_theory(circle, (FgAbGroup(m), FgAbGroup(0)), k)
        for m in range(1, 6)
        for k in range(2, 5)
    )
    specific = pinch_strata_oracle(3, 2) == (FgAbGroup(4), FgAbGroup(1))
    specific = specific and pinch_k_theory(
        circle, (FgAbGroup(3), FgAbGroup(0)), 2
    ) == (FgAbGroup(4), FgAbGroup(1))
    ranks = [pinch_strata_oracle(m, 2)[0].rank for m in range(1, 9)]
    linear = {b - a for a, b in zip(ranks, ranks[1:])} == {1}
    report(
        7,
        "pinch oracle equals the closed formula on the grid; K0 rank grows linearly",
        agree and specific and linear,
    )


def _random_unimodular(rng, n, ops=6):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        kind = rng.randint(0, 2)
        if kind == 0:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=n)


def test_criterion_8a_snf_property_suite():
    rng = random.Random(2024)
    for _ in range(500):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        res = smith_normal_form(a)
        assert res.U @ a @ res.V == res.S
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        diag = res.S.diagonal()
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0) or y == 0
        for i in range(a.rows):
            for j in range(a.cols):
                if i != j:
                    assert res.S.entry(i, j) == 0
        p = _random_unimodular(rng, a.rows)
        q = _random_unimodular(rng, a.cols)
        b = p @ a @ q
        assert kernel(b) == kernel(a)
        assert cokernel(b) == cokernel(a)
    report(8, "500 random matrices: SNF postconditions and basis invariance", True)


ALL_MODELS = [
    SolenoidAabAb(),
    BrokenHeart(),
    TwistedSphere(),
    PinchCircle(split_points=(0.2, 0.5, 0.8), sheets=2),
    standard_wedge(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
def test_criterion_8b_convolution_property_suite(model):
    rng = np.random.default_rng(31)
    base_points = []
    seen = set()
    for x in sample_base_points(model, 40, seed=6):
        label = resolve_orbit(model, x).base_label
        if label not in seen:
            seen.add(label)
            base_points.append(x)
        if len(base_points) == 5:
            break

    def rand_elem():
        vals = []
        for x in base_points:
            d = resolve_orbit(model, x).size
            vals.append(
                (x, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            )
        return grid_element(model, vals)

    elems = [rand_elem() for _ in range(100)]
    worst = 0.0
    for f, g, h in zip(elems, elems[1:], elems[2:]):
        for x in base_points:
            a = evaluate(f, x).entries
            b = evaluate(g, x).entries
            c = evaluate(h, x).entries
            worst = max(worst, float(np.max(np.abs((a @ b) @ c - a @ (b @ c)))))
    for f, g in zip(elems, elems[1:]):
        fg_star = adjoint(product(f, g))
        gs_fs = product(adjoint(g), adjoint(f))
        for x in base_points:
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            evaluate(fg_star, x).entries - evaluate(gs_fs, x).entries
                        )
                    )
                ),
            )
    report(
        8,
        f"100 grid elements on {model.kind}: associativity and involution to 1e-12 "
        f"(worst {worst:.1e})",
        worst <= 1e-12,
    )
