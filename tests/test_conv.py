import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fell_lab.conv import (
    ALGEBRA_TOL,
    VERIFY_CHUNK,
    AlgebraElement,
    IncompatibilityError,
    Interval,
    InvarianceError,
    MissingSampleError,
    NonHausdorffRegionError,
    Region,
    RegionPiece,
    RegionSectionError,
    add,
    adjoint,
    builtin_element,
    check_branch_continuity,
    convolve,
    evaluate,
    extrapolate_limit,
    grid_element,
    identity_element,
    indicator_projection,
    product,
    restrict,
    VerificationReport,
    twisted_sphere_projection,
    verify_fullness_witness,
    verify_projection,
    zero_element,
)
from fell_lab.spaces import (
    BrokenHeart,
    CoverChart,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    Span,
    TwistedSphere,
    approach_sequences,
    build_cover_groupoid,
    interval_base,
    resolve_orbit,
    sample_base_points,
    wedge,
)

SQRT_EIGHTH = math.sqrt(1.0 / 8.0)


def standard_wedge():
    return wedge(
        SolenoidAabAb(),
        BrokenHeart(),
        PointRef(0, (2.5,)),
        PointRef(0, (0.0,)),
    )


A_CIRCLE_REGION = Region(
    (RegionPiece(chart=0, box=(Interval(1.0, 2.0, True, False),)),)
)


def random_grid_element(model, rng, n_points=8, seed_points=5):
    points = sample_base_points(model, n_points * 4, seed=seed_points)
    stride = max(len(points) // n_points, 1)
    vals = []
    seen = set()
    for x in points[::stride]:
        orbit = resolve_orbit(model, x)
        if orbit.base_label in seen:
            continue
        seen.add(orbit.base_label)
        d = orbit.size
        vals.append((x, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
    return grid_element(model, vals), [v[0] for v in vals]


class TestEvaluate:
    def setup_method(self):
        self.model = TwistedSphere()
        self.p = twisted_sphere_projection(self.model)

    def test_equator_value(self):
        mat = evaluate(self.p, PointRef(0, (0.7, 0.0)))
        assert mat.entries.shape == (1, 1)
        assert mat.entries[0, 0] == pytest.approx(1.0)

    def test_pole_value(self):
        mat = evaluate(self.p, PointRef(1, (0.0, 1.0)))
        np.testing.assert_allclose(mat.entries, np.eye(2), atol=0)

    def test_generic_value_at_theta0_z_half(self):
        # Direct substitution: diagonal (1/2,1/2,1/2,1/2), coupling sqrt(1/8),
        # with the second twice-covering member's phase flipped against the
        # second once-covering copy.
        mat = evaluate(self.p, PointRef(0, (0.0, 0.5))).entries
        np.testing.assert_allclose(np.diag(mat), [0.5] * 4, rtol=0, atol=1e-15)
        assert mat[0, 2] == pytest.approx(SQRT_EIGHTH)
        assert mat[0, 3] == pytest.approx(SQRT_EIGHTH)
        assert mat[1, 2] == pytest.approx(SQRT_EIGHTH)
        assert mat[1, 3] == pytest.approx(-SQRT_EIGHTH)
        assert mat[0, 1] == 0
        assert mat[2, 3] == 0

    def test_grid_missing_sample(self):
        f, pts = random_grid_element(self.model, np.random.default_rng(0))
        with pytest.raises(MissingSampleError):
            evaluate(f, PointRef(0, (1.234567, 0.777)))

    def test_grid_round_trip(self):
        rng = np.random.default_rng(1)
        f, pts = random_grid_element(self.model, rng)
        for x in pts:
            orbit = resolve_orbit(self.model, x)
            mat = evaluate(f, x)
            assert mat.entries.shape == (orbit.size, orbit.size)

    def test_grid_two_lifts_of_one_base_point_rejected(self):
        values = [(PointRef(0, (0.5,)), np.eye(2)), (PointRef(0, (1.5,)), np.eye(2))]
        with pytest.raises(ValueError, match="duplicate grid value"):
            grid_element(SolenoidAabAb(), values)

    def test_builtin_requires_matching_model(self):
        with pytest.raises(IncompatibilityError):
            twisted_sphere_projection(SolenoidAabAb())


class TestConvolve:
    def setup_method(self):
        self.model = TwistedSphere()
        self.p = twisted_sphere_projection(self.model)

    def test_identity_is_neutral(self):
        ident = identity_element(self.model)
        for x in sample_base_points(self.model, 30, seed=2):
            got = convolve(ident, self.p, x).entries
            np.testing.assert_array_equal(got, evaluate(self.p, x).entries)

    def test_projection_squares_to_itself(self):
        x = PointRef(0, (0.3, 0.5))
        pp = convolve(self.p, self.p, x)
        diff = np.max(np.abs(pp.entries - evaluate(self.p, x).entries))
        assert diff <= 1e-12

    def test_disjoint_indicators_multiply_to_zero(self):
        model = SolenoidAabAb()
        r1 = Region((RegionPiece(0, (Interval(0.1, 0.4),)),))
        r2 = Region((RegionPiece(0, (Interval(2.2, 2.8),)),))
        i1 = indicator_projection(model, r1)
        i2 = indicator_projection(model, r2)
        for x in sample_base_points(model, 40, seed=3):
            assert convolve(i1, i2, x).max_abs() == 0.0

    def test_model_mismatch(self):
        with pytest.raises(IncompatibilityError):
            convolve(self.p, identity_element(SolenoidAabAb()), PointRef(0, (0.3, 0.5)))


class TestAdjoint:
    def test_projection_is_self_adjoint(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        q = adjoint(p)
        for x in sample_base_points(model, 25, seed=4):
            np.testing.assert_array_equal(
                evaluate(q, x).entries, evaluate(p, x).entries
            )

    def test_single_off_diagonal_entry_mirrors(self):
        model = SolenoidAabAb()
        x = PointRef(0, (0.25,))
        c = 0.3 + 0.4j
        mat = np.array([[0, c], [0, 0]], dtype=complex)
        f = grid_element(model, [(x, mat)])
        got = evaluate(adjoint(f), x).entries
        assert got[1, 0] == np.conj(c)
        assert got[0, 1] == 0

    def test_involution(self):
        model = BrokenHeart()
        f, pts = random_grid_element(model, np.random.default_rng(5))
        for x in pts:
            np.testing.assert_array_equal(
                evaluate(adjoint(adjoint(f)), x).entries, evaluate(f, x).entries
            )


class TestIndicatorProjection:
    def test_a_circle_projection_on_wedge(self):
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        samples = sample_base_points(model, 400, seed=6)
        rep = verify_projection(ind, samples)
        assert rep.max_idempotency_defect == 0.0
        assert rep.max_selfadjoint_defect == 0.0
        assert rep.fullness_floor == 0.0  # vanishes over the second factor

    def test_empty_region_gives_zero_element(self):
        model = SolenoidAabAb()
        ind = indicator_projection(model, Region())
        for x in sample_base_points(model, 30, seed=7):
            assert evaluate(ind, x).max_abs() == 0.0

    def test_splice_region_is_nonzero_projection(self):
        model = SolenoidAabAb()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        aa = evaluate(ind, model.named_point("aa"))
        assert aa.entries[0, 0] == 1.0
        edge = evaluate(ind, PointRef(0, (0.3,)))
        np.testing.assert_array_equal(np.diag(edge.entries).real, [0.0, 1.0])

    def test_region_with_two_branch_partners_rejected(self):
        model = SolenoidAabAb()
        bad = Region((RegionPiece(0, (Interval(0.0, 1.5),)),))  # ab and aa
        with pytest.raises(NonHausdorffRegionError):
            indicator_projection(model, bad)

    def test_region_meeting_fiber_twice_rejected(self):
        model = SolenoidAabAb()
        bad = Region((RegionPiece(0, (Interval(0.1, 1.9, False, False),)),))
        with pytest.raises(RegionSectionError):
            indicator_projection(model, bad)

    def test_equator_band_rejected_on_sphere(self):
        model = TwistedSphere()
        band = Region(
            (RegionPiece(0, (Interval(0.0, 2 * math.pi), Interval(-0.1, 0.1))),)
        )
        with pytest.raises(NonHausdorffRegionError):
            indicator_projection(model, band)


class TestVerifyProjection:
    def test_sphere_projection_passes_at_scale(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        samples = sample_base_points(model, 2500, seed=8)
        rep = verify_projection(p, samples)
        assert rep.passes(1e-12)
        assert rep.samples_used == len(samples)

    def test_constant_half_diagonal_defect(self):
        # (1/2)^2 - 1/2 has magnitude 1/4 on a singleton fiber.
        model = SolenoidAabAb()
        x = PointRef(0, (2.5,))
        f = grid_element(model, [(x, np.array([[0.5]], dtype=complex))])
        rep = verify_projection(f, [x])
        assert rep.max_idempotency_defect == pytest.approx(0.25)

    def test_indicator_defect_exactly_zero(self):
        model = SolenoidAabAb()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        rep = verify_projection(ind, sample_base_points(model, 100, seed=9))
        assert rep.max_idempotency_defect == 0.0
        assert rep.max_selfadjoint_defect == 0.0

    def test_report_serialization(self):
        model = SolenoidAabAb()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        rep = verify_projection(ind, sample_base_points(model, 50, seed=10))
        d = rep.to_dict()
        assert d["samples_used"] == rep.samples_used
        assert str(rep.fullness_floor) in rep.text()


def _opnorm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def _verify_projection_reference(
    p: AlgebraElement, samples: list[PointRef], tol: float = ALGEBRA_TOL
) -> VerificationReport:
    """Oracle: the per-sample loop, one evaluation and two SVDs per sample,
    that the batched ``verify_projection`` replaced."""
    if not samples:
        raise ValueError("need at least one sample point")
    max_idem = 0.0
    max_sa = 0.0
    floor = math.inf
    for x in samples:
        mat = evaluate(p, x).entries
        max_idem = max(max_idem, _opnorm(mat @ mat - mat))
        max_sa = max(max_sa, _opnorm(mat - mat.conj().T))
        floor = min(floor, float(np.max(np.abs(mat))))
    return VerificationReport(
        max_idempotency_defect=max_idem,
        max_selfadjoint_defect=max_sa,
        fullness_floor=floor,
        continuity_defects=(),
        samples_used=len(samples),
    )


def assert_matches_reference(p: AlgebraElement, samples: list[PointRef]) -> VerificationReport:
    rep = verify_projection(p, samples)
    assert rep == _verify_projection_reference(p, samples)  # every field, exactly
    return rep


def quarters_cover():
    """The unit interval covered 1, 2, 3 and 4 times on its four quarters."""
    charts = [
        CoverChart(pieces=(Span("x", lo, 1.0, lo == 0.0, True),)) for lo in (0.0, 0.25, 0.5, 0.75)
    ]
    return build_cover_groupoid(interval_base(), charts)


def random_matrix(rng, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestBatchedVerification:
    """``verify_projection`` stacks fiber matrices by size; every report field
    must equal the per-sample oracle's exactly."""

    @pytest.mark.parametrize("perturb", [0.0, 1e-7])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sphere_projection(self, perturb, seed):
        model = TwistedSphere()
        p = twisted_sphere_projection(model, perturb_first_diag=perturb)
        rep = assert_matches_reference(p, sample_base_points(model, 3000, seed=seed))
        assert rep.passes(1e-12) == (perturb == 0.0)

    @pytest.mark.parametrize("make_model", [SolenoidAabAb, standard_wedge], ids=["aab-ab", "wedge"])
    def test_indicators(self, make_model):
        model = make_model()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        assert_matches_reference(ind, sample_base_points(model, 800, seed=3))

    def test_chunk_edges(self):
        # Buckets one short of a chunk, exactly one, one over, and two plus one.
        assert VERIFY_CHUNK == 256
        model = quarters_cover()
        rng = np.random.default_rng(5)
        values = []
        for quarter, count in enumerate((255, 256, 257, 513)):
            for t in np.linspace(0.25 * quarter + 0.01, 0.25 * quarter + 0.24, count):
                values.append((PointRef(0, (float(t),)), random_matrix(rng, quarter + 1)))
        f = grid_element(model, values)
        sizes = [resolve_orbit(model, x).size for x, _ in values]
        assert [sizes.count(d) for d in (1, 2, 3, 4)] == [255, 256, 257, 513]
        assert_matches_reference(f, [x for x, _ in values])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(1, 700),
        scale=st.sampled_from([1e-9, 1.0, 1e6]),
        near_projection=st.booleans(),
    )
    def test_random_grid_on_wedge(self, seed, count, scale, near_projection):
        # Near-projections give defects near zero, where ties and rounding
        # would show first; plain random matrices give large defects.
        model = standard_wedge()
        rng = np.random.default_rng(seed)
        points = {}
        for x in sample_base_points(model, 800, seed=seed % 5):
            points.setdefault(resolve_orbit(model, x).base_label, x)
        values = []
        for x in list(points.values())[:count]:
            d = resolve_orbit(model, x).size
            if near_projection:
                q, _ = np.linalg.qr(random_matrix(rng, d))
                diag = rng.integers(0, 2, d)
                mat = (q * diag) @ q.conj().T + scale * 1e-12 * random_matrix(rng, d)
            else:
                mat = scale * random_matrix(rng, d)
            values.append((x, mat))
        f = grid_element(model, values)
        assert_matches_reference(f, [x for x, _ in values])

    def test_wedge_grid_covers_sizes_one_to_three(self):
        model = standard_wedge()
        sizes = {resolve_orbit(model, x).size for x in sample_base_points(model, 800, seed=0)}
        assert sizes == {1, 2, 3}

    def test_non_finite_product_rejected(self):
        model = SolenoidAabAb()
        x = PointRef(0, (2.5,))
        f = grid_element(model, [(x, np.array([[1e200]], dtype=complex))])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            verify_projection(product(f, f), [x])

    def test_overflowing_square_fails(self):
        # 1e200 is finite but its square is not: the idempotency defect is
        # NaN and the report fails; the per-sample loop dropped it and read 0.
        model = SolenoidAabAb()
        x = PointRef(0, (2.5,))
        f = grid_element(model, [(x, np.array([[1e200]], dtype=complex))])
        rep = verify_projection(f, [x])  # no numpy warning escapes
        assert math.isnan(rep.max_idempotency_defect)
        assert not rep.passes(1e-12)


class TestFullness:
    def test_sphere_floor_matches_brute_force_scan(self):
        # Independent oracle: minimize the largest formula entry over z.
        def max_entry(z):
            return max(1.0 - z, z, math.sqrt(0.5 * z * (1.0 - z)))

        oracle = min(max_entry(i / 10000.0) for i in range(10001))
        assert oracle == pytest.approx(0.5)

        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        floor = verify_fullness_witness(p, sample_base_points(model, 3000, seed=11))
        assert floor == pytest.approx(oracle, abs=1e-12)
        assert floor >= 0.25

    def test_wedge_indicator_floor_zero(self):
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        floor = verify_fullness_witness(ind, sample_base_points(model, 400, seed=12))
        assert floor == 0.0

    @pytest.mark.parametrize(
        "make, n",
        [
            (lambda: indicator_projection(SolenoidAabAb(), A_CIRCLE_REGION), 600),
            (lambda: indicator_projection(standard_wedge(), A_CIRCLE_REGION), 800),
            (lambda: twisted_sphere_projection(TwistedSphere()), 10000),
        ],
        ids=["aab-ab", "broken-heart-wedge", "twisted-sphere"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_report_floor_is_the_witness(self, make, n, seed):
        # Scenarios read the floor off the verification report; the separate
        # witness pass is its oracle and must agree exactly.
        p = make()
        samples = sample_base_points(p.model, n, seed=seed)
        floor = verify_projection(p, samples).fullness_floor
        assert floor == verify_fullness_witness(p, samples)

    def test_zero_element_floor_zero(self):
        model = TwistedSphere()
        floor = verify_fullness_witness(
            zero_element(model), sample_base_points(model, 50, seed=13)
        )
        assert floor == 0.0


class TestExtrapolation:
    def test_geometric_sequence_exact(self):
        values = [1.0 + 0.5 ** k for k in range(10)]
        assert extrapolate_limit(values) == pytest.approx(1.0, abs=1e-12)

    def test_square_root_profile(self):
        values = [math.sqrt(0.01 * 2.0 ** (-k)) for k in range(16)]
        assert abs(extrapolate_limit(values)) <= 1e-9

    def test_constant_sequence(self):
        assert extrapolate_limit([2.0] * 6) == pytest.approx(2.0)


class TestBranchContinuity:
    def test_sphere_projection_continuous_at_equator(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        seqs = approach_sequences(model, "equator", 16, 0.01)
        defects = check_branch_continuity(p, seqs, tol=1e-6)
        assert len(defects) == 2
        for d in defects:
            assert d.within_tol
            assert d.defect <= 1e-6

    def test_limits_of_formula_entries(self):
        # As the distance shrinks, twice-covering diagonal entries go to 1,
        # once-covering diagonals and all couplings go to 0.
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        seq = approach_sequences(model, "equator", 14, 0.01)[0]
        values = [evaluate(p, x).entries for x in seq.samples]
        u_diag = extrapolate_limit([v[0, 0] for v in values])
        v_diag = extrapolate_limit([v[2, 2] for v in values])
        coupling = extrapolate_limit([v[0, 2] for v in values])
        assert u_diag == pytest.approx(1.0, abs=1e-9)
        assert abs(v_diag) <= 1e-9
        assert abs(coupling) <= 1e-6

    def test_identity_element_all_defects_zero(self):
        for model, cls in (
            (TwistedSphere(), "equator"),
            (SolenoidAabAb(), "wedge"),
            (BrokenHeart(), "top"),
        ):
            seqs = approach_sequences(model, cls, 12, 0.01)
            defects = check_branch_continuity(identity_element(model), seqs)
            assert all(d.defect <= 1e-9 for d in defects)

    def test_jump_element_flagged(self):
        # Indicator-style grid element whose value jumps at the branch point.
        model = SolenoidAabAb()
        seqs = approach_sequences(model, "wedge", 10, 0.01)
        seq = next(s for s in seqs if s.direction == "a@0")
        vals = {}
        for x in seq.samples:
            orbit = resolve_orbit(model, x)
            vals[x] = np.eye(orbit.size, dtype=complex)
        for name in ("ab", "aa", "ba"):
            pt = model.named_point(name)
            vals[pt] = np.zeros((1, 1), dtype=complex)  # jump: limit is 1
        f = grid_element(model, list(vals.items()))
        defects = check_branch_continuity(f, [seq], tol=1e-6)
        assert defects[0].defect == pytest.approx(1.0)
        assert not defects[0].within_tol

    def test_solenoid_projection_continuity(self):
        # The splice indicator jumps across the upper edge-a end: the lift
        # converging to aa carries value 0 while the indicator is 1 at aa,
        # and the lift converging to ba carries 1 against 0 at ba.  The
        # lower end matches on both lifts.
        model = SolenoidAabAb()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        seqs = approach_sequences(model, "wedge", 12, 0.01)
        defects = {d.sequence: d.defect for d in check_branch_continuity(ind, seqs)}
        assert defects["wedge:a@1"] == pytest.approx(1.0)
        assert defects["wedge:a@0"] == pytest.approx(0.0)
        assert defects["wedge:b@0"] == pytest.approx(0.0)
        assert defects["wedge:b@1"] == pytest.approx(0.0)


class TestRestrict:
    def test_wedge_indicator_restricts_to_zero_on_heart(self):
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        rho = restrict(ind, "right")
        for x in sample_base_points(BrokenHeart(), 250, seed=14):
            assert evaluate(rho, x).max_abs() == 0.0

    def test_factor_model_argument(self):
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        rho = restrict(ind, model.right)
        assert rho.model == model.right

    def test_factor_chart_set_argument(self):
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        assert restrict(ind, {1, 2, 3}).model == model.right
        assert restrict(ind, {0}).model == model.left

    def test_restriction_is_multiplicative(self):
        model = standard_wedge()
        rng = np.random.default_rng(15)
        f, pts = random_grid_element(model, rng, n_points=12)
        g, _ = random_grid_element(model, rng, n_points=12)
        fg = product(f, g)
        lhs = restrict(fg, "right")
        rf, rg = restrict(f, "right"), restrict(g, "right")
        checked = 0
        for x in pts:
            if x.chart == 0:
                continue  # left-factor point
            local = PointRef(x.chart - 1, x.coord)
            a = evaluate(lhs, local).entries
            b = evaluate(rf, local).entries @ evaluate(rg, local).entries
            np.testing.assert_allclose(a, b, atol=1e-12)
            checked += 1
        assert checked > 0

    def test_restriction_preserves_adjoint(self):
        model = standard_wedge()
        rng = np.random.default_rng(16)
        f, pts = random_grid_element(model, rng, n_points=10)
        lhs = restrict(adjoint(f), "left")
        rhs = adjoint(restrict(f, "left"))
        for x in pts:
            if x.chart != 0:
                continue
            np.testing.assert_array_equal(
                evaluate(lhs, x).entries, evaluate(rhs, x).entries
            )

    def test_restrict_identity_is_identity(self):
        model = standard_wedge()
        rho = restrict(identity_element(model), "right")
        for x in sample_base_points(BrokenHeart(), 60, seed=17):
            got = evaluate(rho, x)
            np.testing.assert_array_equal(got.entries, np.eye(got.size))

    def test_indicator_restriction_commutes(self):
        # Restricting the region's indicator equals the indicator of the
        # restricted region, both when the region lives in the kept factor
        # and when it is disjoint from it.
        model = standard_wedge()
        ind = indicator_projection(model, A_CIRCLE_REGION)
        left_direct = indicator_projection(SolenoidAabAb(), A_CIRCLE_REGION)
        rho = restrict(ind, "left")
        for x in sample_base_points(SolenoidAabAb(), 120, seed=18):
            np.testing.assert_array_equal(
                evaluate(rho, x).entries, evaluate(left_direct, x).entries
            )
        empty_direct = indicator_projection(BrokenHeart(), Region())
        rho2 = restrict(ind, "right")
        for x in sample_base_points(BrokenHeart(), 120, seed=19):
            np.testing.assert_array_equal(
                evaluate(rho2, x).entries, evaluate(empty_direct, x).entries
            )

    def test_invariant_subset_errors(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        with pytest.raises(InvarianceError):
            restrict(p, {0})
        with pytest.raises(InvarianceError):
            restrict(p, "left")


ALL_MODELS = [
    SolenoidAabAb(),
    BrokenHeart(),
    TwistedSphere(),
    PinchCircle(split_points=(0.2, 0.5, 0.8), sheets=2),
]


class TestAlgebraIdentities:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_associativity_distributivity_involution(self, model):
        rng = np.random.default_rng(20)
        f, pts = random_grid_element(model, rng, n_points=6)
        g, _ = random_grid_element(model, rng, n_points=6)
        h, _ = random_grid_element(model, rng, n_points=6)
        for x in pts:
            a = evaluate(f, x).entries
            b = evaluate(g, x).entries
            c = evaluate(h, x).entries
            np.testing.assert_allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)
            np.testing.assert_allclose(a @ (b + c), a @ b + a @ c, atol=1e-12)
            np.testing.assert_allclose(
                (a @ b).conj().T, b.conj().T @ a.conj().T, atol=1e-12
            )
            # and through the element-level combinators
            np.testing.assert_allclose(
                evaluate(product(f, add(g, h)), x).entries,
                evaluate(add(product(f, g), product(f, h)), x).entries,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                evaluate(adjoint(product(f, g)), x).entries,
                evaluate(product(adjoint(g), adjoint(f)), x).entries,
                atol=1e-12,
            )

    def test_sphere_projection_traces(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        for x in sample_base_points(model, 400, seed=21):
            mat = evaluate(p, x)
            expected = {4: 2.0, 2: 2.0, 1: 1.0}[mat.size]
            assert mat.trace().real == pytest.approx(expected, abs=1e-12)
            assert abs(mat.trace().imag) <= 1e-12

    def test_sphere_projection_spectrum(self):
        model = TwistedSphere()
        p = twisted_sphere_projection(model)
        for x in sample_base_points(model, 150, seed=22):
            eigs = np.linalg.eigvalsh(evaluate(p, x).entries)
            assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)) <= 1e-10)

    def test_perturbed_projection_defect(self):
        # One diagonal entry shifted by 0.1: at the equator the fiber matrix
        # is [1.1] and the idempotency defect is |1.21 - 1.1| = 0.11.
        model = TwistedSphere()
        p = twisted_sphere_projection(model, perturb_first_diag=0.1)
        samples = sample_base_points(model, 1500, seed=23)
        rep = verify_projection(p, samples)
        # independent recomputation over the same samples
        expected = 0.0
        for x in samples:
            mat = evaluate(twisted_sphere_projection(model), x).entries.copy()
            mat[0, 0] += 0.1
            expected = max(expected, np.linalg.norm(mat @ mat - mat, 2))
        assert rep.max_idempotency_defect == pytest.approx(expected, abs=1e-12)
        assert 0.09 <= rep.max_idempotency_defect <= 0.16
        assert not rep.passes(1e-12)
