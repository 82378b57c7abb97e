import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fell_lab.spaces import (
    BrokenHeart,
    CoverChart,
    CoverageError,
    DomainError,
    InvalidWedgeError,
    ParameterError,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    Span,
    TwistedSphere,
    UnknownBranchClassError,
    VertexPiece,
    aab_ab_base,
    aab_ab_figure_cover,
    approach_sequences,
    build_cover_groupoid,
    interval_base,
    model_from_dict,
    qkey,
    resolve_orbit,
    sample_base_points,
    wedge,
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
            period = model.charts[ma.chart] if axis == 0 else None
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

    def test_prefixed_branch_classes(self):
        model = standard_wedge()
        names = {c.name for c in model.branch_classes}
        assert names == {"left:wedge", "right:top"}

    def test_nested_wedge_composes(self):
        outer = wedge(
            standard_wedge(), BrokenHeart(), PointRef(2, (0.5,)), PointRef(1, (0.4,))
        )
        assert len(outer.charts) == 7
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


class TestCoverGroupoid:
    def test_single_chart_hausdorff_base(self):
        chart = CoverChart(pieces=(Span("x", 0.0, 1.0, True, True),))
        model = build_cover_groupoid(interval_base(), (chart,))
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
                PointRef(j, (cc.local_of(x),))
                for j, cc in enumerate(model.cover_charts)
                if cc.local_of(x) is not None
            ]
            assert lifts, x
            assert resolve_orbit(model, lifts[0]).size == memberships(x), x

    def test_figure_cover_expected_sizes(self):
        model = aab_ab_figure_cover()
        a_quarter = model.cover_charts[3].local_of(("a", 0.25))
        assert resolve_orbit(model, PointRef(3, (a_quarter,))).size == 3
        a_half = model.cover_charts[3].local_of(("a", 0.5))
        assert resolve_orbit(model, PointRef(3, (a_half,))).size == 1
        named = model.named_points()
        for v in ("ab", "ba", "aa"):
            assert resolve_orbit(model, named[v]).size == 1


class TestApproachSequences:
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
        assert rebuilt.to_dict() == model.to_dict()

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            model_from_dict({"kind": "moebius"})
