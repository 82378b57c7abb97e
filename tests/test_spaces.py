import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fell_lab.spaces
from fell_lab.conv import RegionPiece, _meeting
from orbit_reference import (
    base_of,
    declared_partners,
    linear_wrap,
    periods,
    pinch_circles,
    quarters_cover,
    reference_orbit,
    scalar_orbit,
    twisted_spheres,
    two_vertex_cover,
)
from fell_lab.spaces import (
    TOL,
    AffineMap,
    BrokenHeart,
    CoverChart,
    CoverModel,
    CoverageError,
    DomainError,
    Interval,
    InvalidWedgeError,
    ParameterError,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    Span,
    TwistedSphere,
    UnknownBranchClassError,
    VertexPiece,
    WedgeModel,
    aab_ab_figure_cover,
    approach_sequences,
    build_cover_groupoid,
    model_from_dict,
    qkey,
    read_json,
    resolve_orbit,
    resolve_orbits,
    sample_base_points,
    wedge,
    write_json,
)

TWO_PI = 2.0 * math.pi


def standard_wedge():
    return wedge(
        SolenoidAabAb(),
        BrokenHeart(),
        PointRef(0, (2.5,)),
        PointRef(0, (0.0,)),
    )


def assert_orbits_close(model, a, b, tol=2e-9):
    assert a.size == b.size
    for ma, mb in zip(a.members, b.members):
        assert ma.chart == mb.chart
        for axis, (ca, cb) in enumerate(zip(ma.coord, mb.coord)):
            period = periods(model)[ma.chart] if axis == 0 else None
            d = abs(ca - cb)
            if period is not None:
                d = min(d, period - d)
            assert d <= tol


ALL_MODELS = [
    SolenoidAabAb(),
    BrokenHeart(),
    TwistedSphere(),
    PinchCircle(split_points=(0.2, 0.5, 0.8), sheets=2),
    standard_wedge(),
]


def nested_wedge():
    """A wedge whose left factor is the standard wedge."""
    return wedge(standard_wedge(), BrokenHeart(), PointRef(2, (0.5,)), PointRef(1, (0.4,)))


ORACLE_MODELS = ALL_MODELS + [
    nested_wedge(), aab_ab_figure_cover(), two_vertex_cover(), PinchCircle((), 3)
]


def oracle_points(model, seed, eps0):
    """Sampled points, named points and approach-sequence points of a model."""
    points = sample_base_points(model, 120, seed=seed) + list(model.named_points().values())
    for c in model.branch_classes:
        if c.directions:
            points += [y for seq in approach_sequences(model, c.name, 6, eps0) for y in seq.samples]
    return points


def assert_matches_reference(model, y):
    got, want = resolve_orbit(model, y), reference_orbit(model, y)
    assert got.keys == want.keys, y
    if isinstance(model, CoverModel):  # a cover's maps compose two affine maps into one
        for a, b in zip(got.members, want.members):
            assert a.chart == b.chart and a.coord == pytest.approx(b.coord, abs=1e-12), y
    else:
        assert got.members == want.members, y


class TestOrbitOracle:
    """The fibers resolved from the declared maps against the hand-written
    fibers of ``orbit_reference``: equal keys, and equal member coordinates
    (bit for bit, except on covers)."""

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.kind)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16), eps0=st.floats(1e-6, 0.25))
    def test_sampled_named_and_approach_points(self, model, seed, eps0):
        for y in oracle_points(model, seed, eps0):
            assert_matches_reference(model, y)

    @pytest.mark.parametrize(
        "model", [m for m in ORACLE_MODELS if not isinstance(m, CoverModel)], ids=lambda m: m.kind
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_points_near_seams(self, model, data):
        # A named or sampled point moved by up to a few TOL, or by up to 0.5:
        # the moved point lands in the snap bands round marks and seams.
        points = oracle_points(model, 0, 0.01)
        y = data.draw(st.sampled_from(points))
        step = st.floats(-5e-9, 5e-9) | st.floats(-0.5, 0.5)
        moved = PointRef(y.chart, tuple(c + data.draw(step) for c in y.coord))
        try:
            model.normalize(moved)
        except DomainError:
            return
        assert_matches_reference(model, moved)

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: m.kind)
    def test_no_normalized_point_is_in_two_domains(self, model):
        # The resolver takes the first domain out of a chart that holds a
        # point.  Two domains may share a snap band, which holds no
        # normalized point; the region check finds one if there is any.
        for chart in range(model.chart_count):
            domains = {m.domain for m in model.transitions(chart)}
            for a, b in itertools.combinations(domains, 2):
                same = AffineMap(chart, b, chart, (1.0,) * len(b), (0.0,) * len(b))
                piece = RegionPiece(chart, a)
                assert _meeting(model, same, piece, piece) is None, (chart, a, b)

    def test_pinch_maps_are_built_per_sheet(self, monkeypatch):
        # m split points and k sheets: (m + 1)(k - 1) maps out of a sheet, and
        # only the sheets that points are resolved on are ever built.
        model = PinchCircle(tuple(i / 400 for i in range(400)), 50)
        assert len(model.transitions(7)) == 400 * 49  # 0 is a split point: 400 arcs
        asked = []
        declared = PinchCircle.transitions
        monkeypatch.setattr(PinchCircle, "transitions",
                            lambda self, chart: asked.append(chart) or declared(self, chart))
        points = [PointRef(3, (0.3001,)), PointRef(3, (0.25,)), PointRef(3, (0.9999,))]  # 0.25 is split
        blocks = resolve_orbits(model, points)
        assert [(block.size, block.rows.tolist()) for block in blocks] == [(1, [1]), (50, [0, 2])]
        assert asked == [3]


# The oracle models, the quarters cover (fibers of sizes 1 to 4) and drawn pinches.
COLUMN_MODELS = st.sampled_from(ORACLE_MODELS + [quarters_cover()]) | pinch_circles()


def band_points(model, points):
    """Each point moved by up to two TOL on every axis, where it normalizes:
    into the snap bands round marks and seams and just past them."""
    out = []
    for y in points:
        for step in (-2 * TOL, -TOL, -TOL / 2, TOL / 2, TOL, 2 * TOL):
            moved = PointRef(y.chart, tuple(c + step for c in y.coord))
            try:
                model.normalize(moved)
            except DomainError:
                continue
            out.append(moved)
    return out


class TestColumnarOrbits:
    """``resolve_orbits`` against the scalar resolver it replaced
    (``orbit_reference.scalar_orbit``): per point the same fiber, with member
    coordinates bit for bit and equal keys."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), count=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_the_scalar_resolver(self, data, count, seed):
        model = data.draw(COLUMN_MODELS)
        pool = oracle_points(model, seed % 97, data.draw(st.floats(1e-6, 0.25)))
        pool += band_points(model, list(model.named_points().values()) + pool[::25])
        points = random.Random(seed).choices(pool, k=count)  # every chart mixed, in any order
        blocks = resolve_orbits(model, points)
        assert [b.size for b in blocks] == sorted({b.size for b in blocks})
        assert sorted(row for b in blocks for row in b.rows.tolist()) == list(range(count))
        for block in blocks:
            assert block.rows.tolist() == sorted(block.rows.tolist())
            for i, row in enumerate(block.rows.tolist()):
                want = scalar_orbit(model, points[row])
                assert block.charts[i].tolist() == [m.chart for m in want.members]
                assert block.coords[i].tobytes() == np.array([m.coord for m in want.members]).tobytes()
                assert block.labels()[i] == want.base_label
                got = block.orbit(i)
                assert got.keys == want.keys and got.members == want.members

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coordinate_not_finite_is_an_error(self, bad):
        # The solenoid reduces the coordinate modulo its period, so both reach the resolver as NaN.
        with pytest.raises(ValueError, match="not finite"):
            resolve_orbits(SolenoidAabAb(), [PointRef(0, (0.5,)), PointRef(0, (bad,))])

    def test_no_points_give_no_blocks(self):
        assert resolve_orbits(standard_wedge(), []) == []

    def test_two_axes_sort_lexicographically(self):
        # Every shipped fiber's members on one chart differ in the first axis
        # alone; a map that moves both axes shows that the first one decides.
        class Sheared(TwistedSphere):
            def transitions(self, chart):
                box = (Interval(0.0, 1.0, True, False), Interval(0.6, 0.9, True, False))
                return (AffineMap(1, box, 1, (1.0, 1.0), (0.1, -0.5)),) if chart == 1 else ()

        y = PointRef(1, (0.3, 0.8))
        (block,) = resolve_orbits(Sheared(), [y])
        assert block.coords.tolist() == [[[0.3, 0.8], [0.1 + 0.3, 0.8 - 0.5]]]
        assert block.orbit(0) == scalar_orbit(Sheared(), y)

    def test_a_member_twice_is_an_error(self):
        # A map onto the point itself, which a model may not declare: the
        # fiber through a point of (2, 3) would hold that point twice.
        class Doubled(SolenoidAabAb):
            def transitions(self, chart):
                own = AffineMap(0, (Interval(2.0, 3.0, False, False),), 0, (1.0,), (0.0,))
                return super().transitions(chart) + (own,)

        points = [PointRef(0, (0.5,)), PointRef(0, (2.5,))]
        with pytest.raises(ValueError, match="orbit has duplicate members"):
            resolve_orbits(Doubled(), points)
        with pytest.raises(ValueError, match="orbit has duplicate members"):
            scalar_orbit(Doubled(), points[1])
        assert resolve_orbits(Doubled(), points[:1])[0].size == 2


class TestTwistedSphereOrbits:
    def setup_method(self):
        self.model = TwistedSphere()

    def test_equator_point_is_singleton(self):
        orbit = resolve_orbit(self.model, PointRef(0, (0.7, 0.0)))
        assert orbit.size == 1

    def test_generic_orbit_has_four_members(self):
        orbit = resolve_orbit(self.model, PointRef(0, (0.3, 0.5)))
        assert orbit.size == 4
        chart_counts = [m.chart for m in orbit.members]
        assert chart_counts == [0, 0, 1, 2]
        u1, u2, v1, v2 = orbit.members
        assert u1.coord[0] == pytest.approx(0.3)
        assert u2.coord[0] == pytest.approx(0.3 + math.pi)
        assert v1.coord[0] == pytest.approx(0.6)
        assert v2.coord[0] == pytest.approx(0.6)
        assert all(m.coord[1] == pytest.approx(0.5) for m in orbit.members)

    def test_pole_orbit_has_two_members(self):
        orbit = resolve_orbit(self.model, PointRef(1, (0.0, 1.0)))
        assert orbit.size == 2
        assert [m.chart for m in orbit.members] == [1, 2]

    def test_pole_not_in_twice_covering_patch(self):
        with pytest.raises(DomainError):
            resolve_orbit(self.model, PointRef(0, (0.3, 1.0)))

    def test_equator_not_in_once_covering_patch(self):
        with pytest.raises(DomainError):
            resolve_orbit(self.model, PointRef(1, (0.3, 0.0)))

    @settings(max_examples=100, deadline=None)
    @given(
        theta=st.floats(0.0, TWO_PI, exclude_max=True),
        z=st.floats(-0.999, 0.999),
        chart=st.integers(0, 2),
    )
    def test_idempotence_from_any_member(self, theta, z, chart):
        # Adversarial floats may sit within an ulp of a quantization bucket
        # edge, so re-resolution is asserted to agree within the 1e-9
        # identity tolerance; exact bucket equality for generic and seam
        # points is covered below and in the stability tests.
        if chart in (1, 2) and abs(z) <= 1e-6:
            z = 0.5
        orbit = resolve_orbit(self.model, PointRef(chart, (theta, z)))
        for m in orbit.members:
            assert_orbits_close(self.model, resolve_orbit(self.model, m), orbit)

    @pytest.mark.parametrize(
        "theta",
        [0.0, 1e-10, math.pi, math.pi - 1e-13, math.nextafter(TWO_PI, 0.0), 0.3],
    )
    def test_idempotence_exact_at_seams(self, theta):
        for chart, z in ((0, 0.5), (1, 0.5), (0, -0.25), (2, -0.25)):
            orbit = resolve_orbit(self.model, PointRef(chart, (theta, z)))
            for m in orbit.members:
                assert resolve_orbit(self.model, m) == orbit


class TestSolenoidOrbits:
    def setup_method(self):
        self.model = SolenoidAabAb()

    def test_orbit_sizes(self):
        assert resolve_orbit(self.model, PointRef(0, (0.25,))).size == 2
        assert resolve_orbit(self.model, PointRef(0, (1.25,))).size == 2
        assert resolve_orbit(self.model, PointRef(0, (2.5,))).size == 1
        for name in ("ab", "aa", "ba"):
            assert resolve_orbit(self.model, self.model.named_point(name)).size == 1

    def test_double_cover_members(self):
        orbit = resolve_orbit(self.model, PointRef(0, (1.25,)))
        assert [m.coord[0] for m in orbit.members] == pytest.approx([0.25, 1.25])

    def test_angle_reduced_mod_period(self):
        orbit = resolve_orbit(self.model, PointRef(0, (3.25,)))
        assert orbit == resolve_orbit(self.model, PointRef(0, (0.25,)))

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(-3.0, 6.0))
    def test_idempotence_adversarial(self, theta):
        orbit = resolve_orbit(self.model, PointRef(0, (theta,)))
        for m in orbit.members:
            assert_orbits_close(self.model, resolve_orbit(self.model, m), orbit, tol=3e-9)


class TestBrokenHeartOrbits:
    def setup_method(self):
        self.model = BrokenHeart()

    def test_identified_segment_has_three_lifts(self):
        orbit = resolve_orbit(self.model, PointRef(0, (1.2,)))
        assert orbit.size == 3
        assert [m.chart for m in orbit.members] == [0, 1, 2]
        for m in orbit.members:
            assert resolve_orbit(self.model, m) == orbit

    def test_vertices_are_singletons(self):
        for name in ("p", "q", "r"):
            assert resolve_orbit(self.model, self.model.named_point(name)).size == 1

    def test_lobe_points_are_singletons(self):
        assert resolve_orbit(self.model, PointRef(1, (0.5,))).size == 1
        assert resolve_orbit(self.model, PointRef(2, (0.5,))).size == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            resolve_orbit(self.model, PointRef(0, (2.0,)))
        with pytest.raises(DomainError):
            resolve_orbit(self.model, PointRef(1, (0.0,)))
        with pytest.raises(DomainError):
            resolve_orbit(self.model, PointRef(3, (0.5,)))


class TestPartitionProperty:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_orbits_equal_or_disjoint(self, model):
        samples = sample_base_points(model, 120, seed=3)
        orbits = [resolve_orbit(model, y) for y in samples]
        for i in range(0, len(orbits), 7):
            for j in range(0, len(orbits), 11):
                a, b = orbits[i], orbits[j]
                keys_a, keys_b = set(a.keys), set(b.keys)
                assert a == b or not (keys_a & keys_b)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_canonical_order_stable(self, model):
        for y in sample_base_points(model, 60, seed=4):
            orbit = resolve_orbit(model, y)
            for m in orbit.members:
                again = resolve_orbit(model, m)
                assert again.keys == orbit.keys


class TestPinch:
    def test_orbit_sizes(self):
        model = PinchCircle(split_points=(0.25, 0.75), sheets=3)
        for y in sample_base_points(model, 50, seed=0):
            orbit = resolve_orbit(model, y)
            base_t = orbit.members[0].coord[0]
            if any(abs(base_t - a) < 1e-9 for a in model.split_points):
                assert orbit.size == 1
            else:
                assert orbit.size == 3

    def test_split_lifts_are_singletons_per_sheet(self):
        model = PinchCircle(split_points=(0.5,), sheets=4)
        for sheet in range(4):
            orbit = resolve_orbit(model, PointRef(sheet, (0.5,)))
            assert orbit.size == 1
            assert orbit.members[0].chart == sheet

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            PinchCircle(split_points=(0.1,), sheets=1)
        with pytest.raises(ParameterError):
            PinchCircle(split_points=(0.1, 0.1), sheets=2)
        with pytest.raises(ParameterError):
            PinchCircle(split_points=(0.0, 1.0 - 1e-12), sheets=2)

    @settings(max_examples=60, deadline=None)
    @given(t=st.floats(-2.0, 2.0), sheet=st.integers(0, 2))
    def test_idempotence_adversarial(self, t, sheet):
        model = PinchCircle(split_points=(0.25, 0.75), sheets=3)
        orbit = resolve_orbit(model, PointRef(sheet, (t,)))
        for m in orbit.members:
            assert_orbits_close(model, resolve_orbit(model, m), orbit, tol=3e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.floats(0.0, 0.09),
        gaps=st.lists(st.floats(5e-9, 0.003), max_size=300),
        last=st.sampled_from([(), (1 - 2 * TOL,), (1 - TOL,), (1 - 0.5 * TOL,)]),
        data=st.data(),
    )
    def test_snap_bisects_like_the_linear_scan(self, start, gaps, last, data):
        # Split points down to 5 TOL apart, up to 302 of them, the last one
        # perhaps in the band round 1, where it wins over the period; points
        # in and just outside the TOL band round a split point, 0 and 1.
        assume(not last or start > 1e-8)
        model = PinchCircle(tuple(itertools.accumulate(gaps, initial=start)) + last, 2)
        marks = model.split_points
        for _ in range(10):
            centre = data.draw(st.sampled_from(marks + (0.0, 1.0)))
            offset = data.draw(st.sampled_from([-TOL, TOL, 0.0, -2 * TOL, 2 * TOL]) | st.floats(-2 * TOL, 2 * TOL))
            for x in (centre + offset, math.nextafter(centre + offset, math.inf),
                      math.nextafter(centre + offset, -math.inf)):
                expected = linear_wrap(x, 1.0, marks)
                assert fell_lab.spaces._wrap(x, 1.0, marks) == expected
                assert model.normalize(PointRef(1, (x,))) == PointRef(1, (expected,))


class TestWedge:
    def test_standard_wedge_glues_singletons(self):
        model = standard_wedge()
        from_left = resolve_orbit(model, PointRef(0, (2.5,)))
        from_right = resolve_orbit(model, PointRef(1, (0.0,)))
        assert from_left == from_right
        assert from_left.size == 1

    def test_orbits_away_from_wedge_point_unchanged(self):
        model = standard_wedge()
        left_orbit = resolve_orbit(model, PointRef(0, (0.25,)))
        assert left_orbit == resolve_orbit(SolenoidAabAb(), PointRef(0, (0.25,)))
        right_orbit = resolve_orbit(model, PointRef(1, (1.2,)))
        factor_orbit = resolve_orbit(BrokenHeart(), PointRef(0, (1.2,)))
        assert right_orbit.size == factor_orbit.size == 3
        assert [m.chart for m in right_orbit.members] == [1, 2, 3]

    def test_orbit_sizes_match_factors_at_every_sample(self):
        model = standard_wedge()
        glue_label = resolve_orbit(model, model.left_point).base_label
        left, right = SolenoidAabAb(), BrokenHeart()
        for y in sample_base_points(model, 200, seed=8):
            orbit = resolve_orbit(model, y)
            if orbit.base_label == glue_label:
                continue
            if y.chart == 0:
                assert orbit.size == resolve_orbit(left, y).size
            else:
                local = PointRef(y.chart - 1, y.coord)
                assert orbit.size == resolve_orbit(right, local).size

    def test_wedge_at_identified_segment_rejected(self):
        with pytest.raises(InvalidWedgeError):
            wedge(
                SolenoidAabAb(),
                BrokenHeart(),
                PointRef(0, (2.5,)),
                PointRef(0, (1.0,)),  # fiber of size 3
            )

    def test_wedge_at_branch_point_rejected(self):
        with pytest.raises(InvalidWedgeError):
            wedge(
                SolenoidAabAb(),
                BrokenHeart(),
                PointRef(0, (1.0,)),  # aa: singleton fiber but branch point
                PointRef(0, (0.0,)),
            )

    def test_wedge_at_doubly_covered_point_rejected(self):
        with pytest.raises(InvalidWedgeError):
            wedge(
                SolenoidAabAb(),
                BrokenHeart(),
                PointRef(0, (0.25,)),  # fiber of size 2
                PointRef(0, (0.0,)),
            )

    def test_direct_construction_checks_the_glue(self):
        # 0.5 on the solenoid has a fiber of size 2: not a wedge point, even
        # when the wedge is constructed without ``wedge``.
        with pytest.raises(InvalidWedgeError):
            WedgeModel(SolenoidAabAb(), BrokenHeart(), PointRef(0, (0.5,)), PointRef(0, (0.0,)))
        with pytest.raises(InvalidWedgeError):  # q: a branch point
            WedgeModel(SolenoidAabAb(), BrokenHeart(), PointRef(0, (2.5,)), PointRef(1, (1.0,)))

    def test_glue_on_the_sphere_equator_rejected(self):
        # The whole equator is branch locus: the points at theta and theta + pi
        # are not separated, though only the pair at equator_theta is listed.
        for theta in (0.5, 0.3, 0.3 + math.pi, TWO_PI - 1e-12):
            with pytest.raises(InvalidWedgeError, match="is a branch point"):
                WedgeModel(
                    SolenoidAabAb(), TwistedSphere(), PointRef(0, (2.5,)), PointRef(0, (theta, 0.0))
                )
        with pytest.raises(InvalidWedgeError, match="is a branch point"):
            WedgeModel(TwistedSphere(), BrokenHeart(), PointRef(0, (0.5, 1e-12)), PointRef(0, (0.0,)))

    def test_is_branch_point(self):
        sphere = TwistedSphere()
        assert sphere.is_branch_point(sphere.normalize(PointRef(0, (2.0, 1e-12))))
        assert not sphere.is_branch_point(PointRef(0, (2.0, 0.5)))
        assert not sphere.is_branch_point(PointRef(1, (0.0, 1.0)))  # a pole
        solenoid = SolenoidAabAb()
        assert solenoid.is_branch_point(PointRef(0, (1.0,)))  # aa
        assert not solenoid.is_branch_point(PointRef(0, (2.5,)))
        model = standard_wedge()
        assert model.is_branch_point(PointRef(2, (1.0,)))  # right:q
        assert not model.is_branch_point(PointRef(1, (0.5,)))
        cover = two_vertex_cover()  # every lift of a branch point, not only the named one
        assert cover.is_branch_point(PointRef(5, (0.4,))) and cover.is_branch_point(PointRef(0, (0.5,)))
        assert not cover.is_branch_point(PointRef(5, (0.3,)))
        pinch = PinchCircle((0.25,), 3)
        assert all(pinch.is_branch_point(PointRef(i, (0.25,))) for i in range(3))

    def test_glue_points_are_stored_normalized(self):
        model = WedgeModel(
            SolenoidAabAb(), BrokenHeart(), PointRef(0, (5.5,)), PointRef(0, (1e-12,))
        )
        assert model == standard_wedge()
        assert model.left_point == PointRef(0, (2.5,))

    def test_prefixed_branch_classes(self):
        model = standard_wedge()
        names = {c.name for c in model.branch_classes}
        assert names == {"left:wedge", "right:top"}

    def test_nested_wedge_composes(self):
        outer = nested_wedge()
        assert outer.chart_count == 7
        glue = resolve_orbit(outer, PointRef(2, (0.5,)))
        assert glue.size == 1
        assert glue == resolve_orbit(outer, PointRef(5, (0.4,)))
        segment = resolve_orbit(outer, PointRef(4, (1.3,)))
        assert [m.chart for m in segment.members] == [4, 5, 6]
        names = {c.name for c in outer.branch_classes}
        assert names == {"left:left:wedge", "left:right:top", "right:top"}
        seqs = approach_sequences(outer, "left:right:top", 6, 0.05)
        assert len(seqs) == 3
        rebuilt = model_from_dict(outer.to_dict())
        assert rebuilt.to_dict() == outer.to_dict()


# The figure cover, a cover with two lifts of ab, and the cover in README.
COVERS = [
    aab_ab_figure_cover(),
    two_vertex_cover(),
    CoverModel("interval", (CoverChart((Span("x", 0.0, 0.6, True),)),
                            CoverChart((Span("x", 0.4, 1.0, False, True),)))),
]


def chart_marks(model, chart):
    """The chart coordinates where a piece starts or ends, or where the
    chart holds an end of some span of the cover, in ascending order."""
    ends = {(p.stratum, e) for cc in model.charts for p in cc.pieces
            if isinstance(p, Span) for e in (p.lo, p.hi)}
    marks, pos = {0.0}, 0.0
    for p in chart.pieces:
        if isinstance(p, Span):
            marks |= {pos + (p.hi - e if p.reverse else e - p.lo)
                      for name, e in ends if name == p.stratum and p.lo <= e <= p.hi}
            pos += p.hi - p.lo
    return sorted(marks)


class TestCoverGroupoid:
    def test_single_chart_hausdorff_base(self):
        chart = CoverChart(pieces=(Span("x", 0.0, 1.0, True, True),))
        model = build_cover_groupoid("interval", (chart,))
        for y in sample_base_points(model, 40):
            assert resolve_orbit(model, y).size == 1

    def test_two_chart_overlap(self):
        c1 = CoverChart(pieces=(Span("x", 0.0, 0.6, True, False),))
        c2 = CoverChart(pieces=(Span("x", 0.4, 1.0, False, True),))
        model = build_cover_groupoid("interval", (c1, c2))
        assert resolve_orbit(model, PointRef(0, (0.5,))).size == 2
        assert resolve_orbit(model, PointRef(0, (0.2,))).size == 1
        assert resolve_orbit(model, PointRef(1, (0.4,))).size == 1

    def test_uncovered_base_rejected(self):
        only_half = CoverChart(pieces=(Span("x", 0.0, 0.5, True, False),))
        with pytest.raises(CoverageError):
            build_cover_groupoid("interval", (only_half,))

    def test_cover_built_in_code_checks_itself(self):
        half = CoverChart((Span("x", 0.0, 0.5, True, False),))
        with pytest.raises(CoverageError):
            CoverModel("interval", (half,))
        with pytest.raises(ParameterError, match="unknown base space 'moon'"):
            CoverModel("moon", (half,))
        whole = CoverModel("interval", [CoverChart((Span("x", 0.0, 1.0, True, True),))])
        assert type(whole.charts) is tuple
        assert build_cover_groupoid is CoverModel

    # Covers that a check on 128 grid points per stratum accepted: x = 0.5
    # lies in neither chart, and neither does any x in (0.3, 0.300001].
    @pytest.mark.parametrize("charts", [
        (CoverChart((Span("x", 0.0, 0.5, True, False),)),
         CoverChart((Span("x", 0.5, 1.0, False, True),))),
        (CoverChart((Span("x", 0.0, 0.3, True, True),)),
         CoverChart((Span("x", 0.300001, 1.0, False, True),))),
    ], ids=["gap-at-half", "gap-after-0.3"])
    def test_gap_between_grid_points_rejected(self, charts):
        with pytest.raises(CoverageError, match="not covered by any chart"):
            CoverModel("interval", charts)

    # One chart whose pieces hold a base point twice: two overlapping spans
    # (x in (0.4, 0.6) at chart coordinates s and s + 0.2), two spans whose
    # closed ends meet, and one vertex named twice.
    @pytest.mark.parametrize("base, chart, point", [
        ("interval", CoverChart((Span("x", 0.0, 0.6, True), Span("x", 0.4, 1.0, False, True))), "('x', 0.5)"),
        ("interval", CoverChart((Span("x", 0.0, 0.5, True, True), Span("x", 0.5, 1.0, True, True))),
         "('x', 0.5)"),
        ("aab_ab", CoverChart((VertexPiece("ab"), Span("a", 0.0, 0.5), VertexPiece("ab"))), "('ab',)"),
    ], ids=["overlapping-spans", "closed-ends-meet", "vertex-twice"])
    def test_chart_holding_a_point_twice_rejected(self, base, chart, point):
        charts = aab_ab_figure_cover().charts if base == "aab_ab" else ()
        with pytest.raises(ParameterError, match=re.escape(f"a cover chart holds the base point {point} twice")):
            CoverModel(base, charts + (chart,))

    def test_spans_meeting_at_one_closed_end_accepted(self):
        chart = CoverChart((Span("x", 0.0, 0.5, True, True), Span("x", 0.5, 1.0, False, True)))
        model = CoverModel("interval", (chart,))
        assert resolve_orbit(model, PointRef(0, (0.5,))).size == 1

    @pytest.mark.parametrize("piece", [
        Span("x", -1.0, 2.0), Span("x", 0.5, 1.0 + 1e-6), Span("x", 0.5, 0.5), Span("x", 0.5, 0.2),
        Span("z", 0.0, 1.0), VertexPiece("ab"),
    ], ids=["span-past-both-ends", "span-past-one-end", "empty-span", "reversed-ends",
            "unknown-stratum", "unknown-vertex"])
    def test_piece_outside_the_base_rejected(self, piece):
        whole = CoverChart((Span("x", 0.0, 1.0, True, True),))
        with pytest.raises(ParameterError, match=re.escape(f"{piece} does not lie in the 'interval' base")):
            CoverModel("interval", (whole, CoverChart((piece,))))

    @pytest.mark.parametrize("model", COVERS, ids=["figure", "two-vertex", "readme"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_normalize_accepts_what_the_chart_walk_reaches(self, model, data):
        # The walk down the chart (orbit_reference.base_of) is the oracle; the
        # coordinates are drawn uniformly and within 5 TOL of every junction.
        # The walk compares a stratum coordinate with TOL, and normalize a
        # chart coordinate, so the two round differently within an ulp of the
        # edge of a TOL band (at 1e-9 * (1 + 1e-15), say); such points are left out.
        # A point that the walk reaches within TOL of a mark is that mark's point.
        j = data.draw(st.integers(0, len(model.charts) - 1))
        chart = model.charts[j]
        marks = chart_marks(model, chart)
        s = data.draw(st.floats(-0.1, marks[-1] + 0.1)
                      | st.sampled_from(marks).flatmap(lambda m: st.floats(m - 5e-9, m + 5e-9)))
        assume(all(abs(abs(s - m) - TOL) > 1e-15 for m in marks))
        try:
            base_of(chart, s)
        except DomainError:
            with pytest.raises(DomainError):
                model.normalize(PointRef(j, (s,)))
        else:
            snapped = next((m for m in marks if abs(s - m) <= TOL), s)
            assert model.normalize(PointRef(j, (s,))) == PointRef(j, (snapped,))

    def test_figure_cover_against_brute_force(self):
        # Independent membership predicates for the five charts.
        def memberships(x):
            count = 0
            if x == ("ab",):
                return 1
            if x == ("ba",):
                return 1
            if x == ("aa",):
                return 1
            stratum, t = x
            if stratum == "a":
                count += 1 if 0.0 < t < 0.5 else 0        # through ab
                count += 1 if 0.5 < t < 1.0 else 0        # through ba
                count += 1 if t != 0.5 else 0             # through aa (both halves)
                count += 1 if 0.1 < t < 0.9 else 0        # a mid-arc
            else:
                count += 1 if 0.5 < t < 1.0 else 0        # through ab
                count += 1 if 0.0 < t < 0.5 else 0        # through ba
                count += 1 if 0.1 < t < 0.9 else 0        # b mid-arc
            return count

        model = aab_ab_figure_cover()
        base_points = [("a", t) for t in (0.05, 0.25, 0.5, 0.75, 0.95)]
        base_points += [("b", t) for t in (0.05, 0.25, 0.5, 0.75, 0.95)]
        base_points += [("ab",), ("ba",), ("aa",)]
        for x in base_points:
            lifts = [
                PointRef(j, found[:1])
                for j, cc in enumerate(model.charts)
                if (found := cc.locate(x))
            ]
            assert lifts, x
            assert resolve_orbit(model, lifts[0]).size == memberships(x), x

    def test_figure_cover_expected_sizes(self):
        model = aab_ab_figure_cover()
        a_quarter = model.charts[3].locate(("a", 0.25))[0]
        assert resolve_orbit(model, PointRef(3, (a_quarter,))).size == 3
        a_half = model.charts[3].locate(("a", 0.5))[0]
        assert resolve_orbit(model, PointRef(3, (a_half,))).size == 1
        named = model.named_points()
        for v in ("ab", "ba", "aa"):
            assert resolve_orbit(model, named[v]).size == 1


def _solenoid_directions():
    return [
        ("a@0", [(0, (0.1,)), (0, (0.05,))]),
        ("a@1", [(0, (0.9,)), (0, (0.95,))]),
        ("b@0", [(0, (2.1,)), (0, (2.05,))]),
        ("b@1", [(0, (2.9,)), (0, (2.95,))]),
    ]


def _heart_directions(chart):
    """The broken heart's directions with its charts shifted by ``chart``."""
    return [
        ("segment@top", [(chart, (1.9,)), (chart, (1.95,))]),
        ("lobe_left", [(chart + 1, (0.9,)), (chart + 1, (0.95,))]),
        ("lobe_right", [(chart + 2, (0.9,)), (chart + 2, (0.95,))]),
    ]


# Per model, each branch class in order with its directions in order and the
# two samples of ``approach_sequences(model, class, 2, 0.1)`` along each.
DIRECTION_TABLE = [
    ("solenoid_aab_ab", SolenoidAabAb(), {"wedge": _solenoid_directions()}),
    ("broken_heart", BrokenHeart(), {"top": _heart_directions(0)}),
    (
        "twisted_sphere",
        TwistedSphere(),
        {
            "equator": [
                ("z+", [(0, (0.3, 0.1)), (0, (0.3, 0.05))]),
                ("z-", [(0, (0.3, -0.1)), (0, (0.3, -0.05))]),
            ]
        },
    ),
    (
        "pinch",
        PinchCircle(split_points=(0.2, 0.5, 0.8), sheets=2),
        {
            "split:0": [
                ("ccw", [(0, (0.30000000000000004,)), (0, (0.25,))]),
                ("cw", [(0, (0.1,)), (0, (0.15000000000000002,))]),
            ],
            "split:1": [
                ("ccw", [(0, (0.6,)), (0, (0.55,))]),
                ("cw", [(0, (0.4,)), (0, (0.45,))]),
            ],
            "split:2": [
                ("ccw", [(0, (0.9,)), (0, (0.8500000000000001,))]),
                ("cw", [(0, (0.7000000000000001,)), (0, (0.75,))]),
            ],
        },
    ),
    (
        "wedge",
        standard_wedge(),
        {"left:wedge": _solenoid_directions(), "right:top": _heart_directions(1)},
    ),
    (
        "nested_wedge",
        nested_wedge(),
        {
            "left:left:wedge": _solenoid_directions(),
            "left:right:top": _heart_directions(1),
            "right:top": _heart_directions(4),
        },
    ),
    ("cover", aab_ab_figure_cover(), {}),  # a cover lists no class
]


class TestApproachSequences:
    @pytest.mark.parametrize(
        "model, expected", [row[1:] for row in DIRECTION_TABLE], ids=[row[0] for row in DIRECTION_TABLE]
    )
    def test_every_direction_pinned(self, model, expected):
        assert [c.name for c in model.branch_classes] == list(expected)
        for name, directions in expected.items():
            seqs = approach_sequences(model, name, 2, 0.1)
            assert [(s.direction, list(s.samples)) for s in seqs] == directions

    def test_twisted_sphere_two_directions(self):
        seqs = approach_sequences(TwistedSphere(), "equator", 3, 0.1)
        assert len(seqs) == 2
        for seq in seqs:
            assert len(seq.samples) == 3
            assert seq.distances == (0.1, 0.05, 0.025)
        zs = sorted(seq.samples[0].coord[1] for seq in seqs)
        assert zs[0] == pytest.approx(-0.1)
        assert zs[1] == pytest.approx(0.1)

    def test_solenoid_four_edge_ends(self):
        # Edge a contributes both of its ends, edge b both of its ends.
        seqs = approach_sequences(SolenoidAabAb(), "wedge", 4, 0.1)
        assert len(seqs) == 4
        assert {s.direction for s in seqs} == {"a@0", "a@1", "b@0", "b@1"}
        for seq in seqs:
            for sample, d in zip(seq.samples, seq.distances):
                orbit = resolve_orbit(SolenoidAabAb(), sample)
                assert d > 0
                assert orbit.size >= 1

    def test_broken_heart_three_directions(self):
        seqs = approach_sequences(BrokenHeart(), "top", 3, 0.2)
        assert {s.direction for s in seqs} == {"segment@top", "lobe_left", "lobe_right"}

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            approach_sequences(TwistedSphere(), "equator", 0, 0.1)
        with pytest.raises(ParameterError):
            approach_sequences(TwistedSphere(), "equator", 4, 0.7)
        with pytest.raises(UnknownBranchClassError):
            approach_sequences(TwistedSphere(), "no-such-class", 4, 0.1)

    def test_wedge_delegates_with_prefix(self):
        model = standard_wedge()
        seqs = approach_sequences(model, "right:top", 3, 0.2)
        assert len(seqs) == 3
        for seq in seqs:
            for sample in seq.samples:
                assert sample.chart >= 1  # right factor charts are shifted


class TestSampling:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_samples_resolve_and_are_deterministic(self, model):
        a = sample_base_points(model, 150, seed=9)
        b = sample_base_points(model, 150, seed=9)
        assert [qkey(p) for p in a] == [qkey(p) for p in b]
        for y in a:
            resolve_orbit(model, y)

    @pytest.mark.parametrize(
        "model", ALL_MODELS + [aab_ab_figure_cover()], ids=lambda m: m.kind
    )
    def test_orbit_keys_fixed_at_resolution(self, model):
        orbits = [resolve_orbit(model, y) for y in sample_base_points(model, 300, seed=5)]
        for orbit in orbits:
            assert orbit.keys == tuple(qkey(m) for m in orbit.members)
            assert orbit.base_label == orbit.keys[0]
            for m in orbit.members:  # the same fiber, resolved from each member
                again = resolve_orbit(model, m)
                if again.keys == orbit.keys:
                    assert again == orbit and hash(again) == hash(orbit)
        # Orbits are equal exactly when their keys are.
        assert len(set(orbits)) == len({o.keys for o in orbits})

    def test_twisted_sphere_samples_include_strata(self):
        model = TwistedSphere()
        keys = {qkey(p) for p in sample_base_points(model, 500)}
        named = model.named_points()
        assert qkey(named["north_pole"]) in keys
        assert qkey(named["south_pole"]) in keys
        assert qkey(named["equator_rep"]) in keys


class TestSerialization:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_round_trip(self, model):
        rebuilt = model_from_dict(model.to_dict())
        assert rebuilt.to_dict() == model.to_dict()
        y = sample_base_points(model, 20, seed=1)[0]
        assert resolve_orbit(rebuilt, y) == resolve_orbit(model, y)

    def test_cover_round_trip(self):
        model = aab_ab_figure_cover()
        rebuilt = model_from_dict(model.to_dict())
        assert rebuilt == model
        assert rebuilt.to_dict() == model.to_dict()

    @pytest.mark.parametrize(
        "model", ALL_MODELS + [aab_ab_figure_cover()], ids=lambda m: m.kind
    )
    def test_kind_is_declared_on_the_class_not_a_field(self, model):
        assert "kind" not in {f.name for f in dataclasses.fields(model)}
        assert model.to_dict()["kind"] == type(model).kind

    def test_writer_writes_every_constructor_field(self):
        assert TwistedSphere(equator_theta=0.7).to_dict() == {
            "kind": "twisted_sphere",
            "equator_theta": 0.7,
        }
        assert PinchCircle(split_points=(0.5, 0.25), sheets=3).to_dict() == {
            "kind": "pinch",
            "split_points": [0.25, 0.5],
            "sheets": 3,
        }

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            model_from_dict({"kind": "moebius"})

    def test_cover_round_trip_writes_vertex_pieces(self):
        charts = aab_ab_figure_cover().to_dict()["charts"]
        assert charts[0]["pieces"][1] == {"vertex": "ab"}
        assert charts[3]["pieces"] == [
            {"stratum": "a", "lo": 0.1, "hi": 0.9, "lo_closed": False, "hi_closed": False,
             "reverse": False}
        ]


UNDECLARED_MODEL_KEYS = [
    ({"kind": "twisted_sphere", "equator_thta": 0.9}, "equator_thta"),
    ({"kind": "solenoid_aab_ab", "marks": [0.0]}, "marks"),
    ({"kind": "pinch", "split_points": [0.5], "sheets": 2, "sheet": 3}, "sheet"),
    ({**standard_wedge().to_dict(), "left_pt": {"chart": 0, "coord": [2.5]}}, "left_pt"),
    ({**standard_wedge().to_dict(), "right": {"kind": "broken_heart", "x": 1}}, "x"),
    ({**standard_wedge().to_dict(), "left_point": {"chart": 0, "cord": [2.5]}}, "cord"),
    ({**aab_ab_figure_cover().to_dict(), "bse": "aab_ab"}, "bse"),
    ({"kind": "cover", "base": "interval", "charts": [{"pieces": [], "name": "c"}]}, "name"),
    (
        {"kind": "cover", "base": "interval",
         "charts": [{"pieces": [{"stratum": "x", "lo": 0.0, "hi": 1.0, "reversed": True}]}]},
        "reversed",
    ),
    (
        {"kind": "cover", "base": "aab_ab", "charts": [{"pieces": [{"vertex": "ab", "lo": 0.0}]}]},
        "lo",
    ),
]


class TestStrictReader:
    @pytest.mark.parametrize(
        "d, key", UNDECLARED_MODEL_KEYS, ids=[key for _, key in UNDECLARED_MODEL_KEYS]
    )
    def test_undeclared_key_is_named(self, d, key):
        with pytest.raises(ParameterError, match=f"no key {key!r}; it reads "):
            model_from_dict(d)

    def test_message_lists_the_declared_fields(self):
        with pytest.raises(ParameterError) as info:
            model_from_dict({"kind": "twisted_sphere", "equator_thta": 0.9})
        assert str(info.value) == (
            "a twisted_sphere model has no key 'equator_thta'; it reads kind, equator_theta"
        )

    @pytest.mark.parametrize(
        "d",
        [
            {"kind": "pinch", "split_points": [0.5]},
            {"kind": "wedge", "left": {"kind": "broken_heart"}},
            {**standard_wedge().to_dict(), "left_point": {"coord": [2.5]}},
            {"kind": "cover", "base": "interval"},
            {"kind": "cover", "base": "interval", "charts": [{"pieces": [{"stratum": "x"}]}]},
        ],
    )
    def test_missing_required_field_is_a_parameter_error(self, d):
        with pytest.raises(ParameterError, match="is missing the key"):
            model_from_dict(d)

    def test_defaulted_field_may_be_left_out(self):
        assert model_from_dict({"kind": "twisted_sphere"}) == TwistedSphere()

    @pytest.mark.parametrize(
        "tp, value",
        [
            (PointRef, {"chart": 0, "coord": (1.0,)}),  # a tuple is not a JSON array
            (PointRef, {"chart": 0, "coord": 1.0}),
            (PointRef, {"chart": 0.0, "coord": [1.0]}),
            (PointRef, [0, [1.0]]),
            (tuple[float, ...], [1.0, True]),
            (tuple[str, ...], ["a", 1]),
            (complex, [1.0]),
            (complex, [1.0, 2.0, 3.0]),
            (complex, [1.0, float("nan")]),
            (Span, {"stratum": 1, "lo": 0.0, "hi": 1.0}),
        ],
    )
    def test_values_are_never_coerced(self, tp, value):
        with pytest.raises(ParameterError):
            read_json(tp, value, "a value")

    def test_reads_declared_types(self):
        assert read_json(PointRef, {"coord": [1, 2.5], "chart": 3}, "p") == PointRef(3, (1.0, 2.5))
        assert read_json(tuple[complex, ...], [[1, -2], [0.5, 0]], "m") == (1 - 2j, 0.5 + 0j)
        assert read_json(Span, {"stratum": "a", "lo": 0, "hi": 1, "reverse": True}, "s") == Span(
            "a", 0.0, 1.0, reverse=True
        )
        assert read_json(VertexPiece, {"vertex": "ab"}, "v") == VertexPiece("ab")

    def test_union_reads_the_member_whose_first_field_is_named(self):
        tp = tuple[VertexPiece | Span, ...]
        pieces = read_json(tp, [{"vertex": "ab"}, {"stratum": "a", "lo": 0, "hi": 1}], "pieces")
        assert pieces == (VertexPiece("ab"), Span("a", 0.0, 1.0))
        with pytest.raises(ParameterError, match=r"^pieces\[\] has no key 'lo'; it reads vertex$"):
            read_json(tp, [{"vertex": "ab", "lo": 0.0}], "pieces")
        with pytest.raises(ParameterError, match=r"^pieces\[\] is missing the key 'stratum'$"):
            read_json(tp, [{"lo": 0.0, "hi": 1.0}], "pieces")
        with pytest.raises(ParameterError, match=r"^pieces\[\] must be a JSON object"):
            read_json(tp, [3], "pieces")

    @pytest.mark.parametrize(
        "tp, value",
        [
            (PointRef, PointRef(2, (0.5, -1.0))),
            (tuple[VertexPiece | Span, ...], (Span("a", 0.0, 0.5, True), VertexPiece("ab"))),
            (CoverChart, aab_ab_figure_cover().charts[0]),
            (tuple[float, ...], (0.25, 0.5)),
        ],
    )
    def test_writer_is_the_readers_inverse(self, tp, value):
        assert read_json(tp, write_json(value), "a value") == value

    def test_a_type_is_resolved_once(self, monkeypatch):
        data, cover = standard_wedge().to_dict(), aab_ab_figure_cover().to_dict()
        model_from_dict(data)
        model_from_dict(cover)

        def unexpected(*args, **kwargs):
            raise AssertionError("type hints resolved again")

        monkeypatch.setattr(fell_lab.spaces, "get_type_hints", unexpected)
        monkeypatch.setattr(fell_lab.spaces.inspect, "signature", unexpected)
        assert model_from_dict(data) == standard_wedge()
        assert model_from_dict(cover) == aab_ab_figure_cover()


# Every shipped model, the wedges and the covers.
PARTNER_MODELS = ORACLE_MODELS + COVERS[2:] + [
    quarters_cover(),
    wedge(BrokenHeart(), aab_ab_figure_cover(), PointRef(0, (0.0,)), PointRef(4, (0.4,))),
]


def partner_models():
    """The models above, pinches with split points down to 5 TOL apart and
    spheres with the listed equator pair anywhere."""
    return st.sampled_from(PARTNER_MODELS) | pinch_circles() | twisted_spheres()


def partner_labels(model, maps, y):
    """The base labels that the maps out of y's chart reach from the point y."""
    return {resolve_orbit(model, m(y)).base_label for m in maps(y.chart) if m.covers(y)}


def split_pairs(model):
    """Per solenoid or aab_ab cover in the model, the base labels of ab and ba."""
    named = model.named_points()
    return {frozenset(resolve_orbit(model, named[name[:-2] + end]).base_label for end in ("ab", "ba"))
            for name in named if name.endswith("ab") and name[:-2] + "ba" in named}


class TestDerivedPartners:
    """``partners`` derived from the transitions against the maps that the
    models declared (``orbit_reference.declared_partners``)."""

    @settings(max_examples=60, deadline=None)
    @given(model=partner_models())
    def test_derived_and_declared_reach_the_same_points(self, model):
        # From every lift of every named point, and from 64 equator points of
        # a sphere, both reach the same base points, except that ab and ba
        # were declared partners and are separated.
        split = split_pairs(model)
        points = [y for x in model.named_points().values() for y in resolve_orbit(model, x).members]
        if isinstance(model, TwistedSphere):
            points += [PointRef(0, (i * TWO_PI / 64, 0.0)) for i in range(64)]
        for y in map(model.normalize, points):
            label = resolve_orbit(model, y).base_label
            declared = partner_labels(model, lambda c: declared_partners(model, c), y)
            derived = partner_labels(model, model.partners, y)
            assert derived == {x for x in declared if frozenset((label, x)) not in split}, y

    @pytest.mark.parametrize("model", [SolenoidAabAb(), aab_ab_figure_cover()], ids=lambda m: m.kind)
    def test_ab_and_ba_are_separated(self, model):
        ab, ba, aa = (resolve_orbit(model, model.named_point(n)) for n in ("ab", "ba", "aa"))
        y = ab.members[0]
        assert partner_labels(model, lambda c: declared_partners(model, c), y) == {ba.base_label, aa.base_label}
        assert partner_labels(model, model.partners, y) == {aa.base_label}
        assert partner_labels(model, model.partners, aa.members[0]) == {ab.base_label, ba.base_label}

    @settings(max_examples=60, deadline=None)
    @given(model=partner_models())
    def test_each_class_is_one_component(self, model):
        # The base points that derived partner maps join to a class's first
        # member, step by step from every lift, are the class's members.
        for c in model.branch_classes:
            members = {resolve_orbit(model, model.named_point(m)).base_label for m in c.members}
            seen, todo = set(), [model.named_point(c.members[0])]
            while todo:
                orbit = resolve_orbit(model, todo.pop())
                if orbit.base_label not in seen:
                    seen.add(orbit.base_label)
                    todo += [m(y) for y in orbit.members for m in model.partners(y.chart) if m.covers(y)]
            assert seen == members, c.name

    def test_sphere_partners_are_the_half_turns_on_the_equator(self):
        assert TwistedSphere().partners(0) == declared_partners(TwistedSphere(), 0)[-2:]
        assert TwistedSphere().partners(1) == TwistedSphere().partners(2) == ()

    def test_pinch_seam_is_no_partner(self):
        # Off 0, the seam 0 = 1 of a circle joins one arc; split at 0, it is a split point.
        assert [m.domain for m in PinchCircle((0.3,), 2).partners(0)] == [(Interval(0.3, 0.3),)]
        assert [m.domain for m in PinchCircle((0.0, 0.3), 2).partners(0)] == [
            (Interval(0.0, 0.0),), (Interval(0.3, 0.3),)]
