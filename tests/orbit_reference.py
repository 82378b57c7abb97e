"""Reference fibers and fiber matrices for the tests, one point at a time.

``fell_lab.spaces.resolve_orbits`` resolves fibers as columns through a cell
grid over the maps a model declares (``SpaceModel.transitions``), and
``fell_lab.conv`` takes fiber matrices as stacks.  Two older forms of both
stay here as oracles:

* ``scalar_orbit`` is the resolver that the columns replaced: the first
  domain out of a chart that holds the point, tried in order, then the
  members sorted by ``qkey``; ``reference_entries`` gives one fiber's
  matrix per rule, and ``reference_evaluate`` wraps it in a
  ``FiberMatrix``.  The tests check that the columns equal them bit for bit.
* ``reference_orbit`` writes the fibers out case by case for each model,
  as the models once computed them.  ``base_of`` is the walk down a cover
  chart that the cover model once made for every point; it is the oracle
  for the cover's ``normalize`` too.  ``reference_members`` takes a point
  that the model has normalized.

``reference_continuity`` is ``check_branch_continuity`` as it once matched
fiber members to branch-point lifts: by a periodic sup-distance within
``max(8 * last distance, 64 * TOL)``, the last matching lift winning, with
each chart's period from ``periods``.  That threshold reaches the next mark
on coarse sequences (two samples from 0.25), so it is an oracle only for
finer ones.  It reads the scalar oracles above, not the columns.

``linear_wrap`` is the periodic snap as ``normalize`` once made it, by
scanning every mark and then the period.

``declared_partners`` gives the partner maps as models once declared them,
before ``SpaceModel.partners`` derived them from the transitions.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from hypothesis import strategies as st

from fell_lab.conv import (
    AdjointRule,
    ContinuityDefect,
    FiberMatrix,
    GridRule,
    IncompatibilityError,
    IndicatorRule,
    ProductRule,
    RestrictRule,
    ScalarRule,
    SphereProjectionRule,
    SumRule,
    extrapolate_limit,
)
from fell_lab.spaces import (
    TOL,
    AffineMap,
    BrokenHeart,
    CoverChart,
    CoverModel,
    DomainError,
    Interval,
    Orbit,
    PinchCircle,
    PointRef,
    SolenoidAabAb,
    Span,
    TwistedSphere,
    TWO_PI,
    VertexPiece,
    WedgeModel,
    aab_ab_figure_cover,
    build_cover_groupoid,
    qkey,
)


def two_vertex_cover() -> CoverModel:
    """The figure cover plus a sixth chart through ab: the vertex ab then
    has two lifts, in chart 0 at 0.5 and in chart 5 at 0.4."""
    through_ab = CoverChart((Span("b", 0.6, 1.0), VertexPiece("ab"), Span("a", 0.0, 0.4)))
    return CoverModel("aab_ab", aab_ab_figure_cover().charts + (through_ab,))


def quarters_cover() -> CoverModel:
    """The unit interval covered 1, 2, 3 and 4 times on its four quarters."""
    charts = [
        CoverChart(pieces=(Span("x", lo, 1.0, lo == 0.0, True),)) for lo in (0.0, 0.25, 0.5, 0.75)
    ]
    return build_cover_groupoid("interval", charts)


def pinch_circles():
    """Pinches whose split points lie close together, down to 5 TOL apart."""
    def pinch(a, gaps, sheets):
        return PinchCircle(tuple(a + sum(gaps[:i]) for i in range(len(gaps) + 1)), sheets)

    return st.builds(pinch, st.floats(0.0, 0.99), st.lists(st.floats(5e-9, 0.01), max_size=3),
                     st.integers(2, 4))


def twisted_spheres():
    """Spheres with the listed equator pair anywhere, on the seams at 0 and pi too."""
    seams = st.sampled_from([0.0, math.pi, 2 * math.pi - 1e-12])
    return st.builds(TwistedSphere, st.floats(0.0, 2 * math.pi) | seams)


def declared_partners(model, chart: int) -> tuple[AffineMap, ...]:
    """The partner maps out of a chart as they were declared: constant maps
    from every lift of each member of a branch class to every lift of each
    other member, plus the sphere's theta -> theta +- pi at z = 0.  A
    cover of ``aab_ab`` took the class (ab, ba, aa) from its base, and a
    wedge took its factors' maps, with the right factor's charts shifted."""
    if isinstance(model, WedgeModel):
        if chart < model.offset:
            return declared_partners(model.left, chart)
        k = model.offset
        return tuple(m._replace(source=m.source + k, target=m.target + k)
                     for m in declared_partners(model.right, chart - k))
    classes = [c.members for c in model.branch_classes]
    if isinstance(model, CoverModel) and model.base == "aab_ab":
        classes.append(("ab", "ba", "aa"))
    out = []
    for members in classes:
        lifts = [scalar_orbit(model, model.named_point(m)).members for m in members]
        for i, j in itertools.permutations(range(len(lifts)), 2):
            out += [AffineMap(chart, tuple(Interval(x, x) for x in a.coord), b.chart,
                              (0.0,) * len(b.coord), b.coord)
                    for a in lifts[i] if a.chart == chart for b in lifts[j]]
    if isinstance(model, TwistedSphere) and chart == 0:
        halves = (Interval(0.0, math.pi, True, False), Interval(math.pi, TWO_PI, True, False))
        out += [AffineMap(0, (half, Interval(0.0, 0.0)), 0, (1.0, 1.0), (math.pi - i * TWO_PI, 0.0))
                for i, half in enumerate(halves)]
    return tuple(out)


def linear_wrap(x: float, period: float, marks: tuple[float, ...]) -> float:
    """x reduced to [0, period), snapped onto the first of the marks, then
    the period, whose TOL band holds it."""
    x %= period
    for tgt in marks + (period,):
        if tgt - TOL <= x <= tgt + TOL:
            return tgt % period
    return x


@functools.lru_cache(maxsize=64)
def _cases(model, chart: int) -> list:
    """Per domain of a chart's transitions: its bounds, then each image as
    (target, *scale, *shift)."""
    by_domain: dict[tuple, list] = {}
    for m in model.transitions(chart):
        by_domain.setdefault(m.domain, []).append((m.target, *m.scale, *m.shift))
    return [(sum((iv.bounds for iv in box), ()), images) for box, images in by_domain.items()]


def scalar_members(model, y: PointRef) -> list[PointRef]:
    """Members of the fiber through a normalized point, any order: y and its
    images under the transitions of the first domain that holds it."""
    if len(y.coord) == 1:
        (x,) = y.coord
        for (lo, hi), images in _cases(model, y.chart):
            if lo <= x < hi:
                return [y] + [PointRef(t, (a * x + b,)) for t, a, b in images]
        return [y]
    x0, x1 = y.coord
    for (l0, h0, l1, h1), images in _cases(model, y.chart):
        if l0 <= x0 < h0 and l1 <= x1 < h1:
            return [y] + [PointRef(t, (a0 * x0 + b0, a1 * x1 + b1)) for t, a0, a1, b0, b1 in images]
    return [y]


def scalar_orbit(model, y: PointRef) -> Orbit:
    """The fiber through y in canonical order, from ``scalar_members``."""
    keyed = sorted((qkey(m), m) for m in scalar_members(model, model.normalize(y)))
    if len({k for k, _ in keyed}) != len(keyed):
        raise ValueError("orbit has duplicate members")
    return Orbit(tuple(m for _, m in keyed), tuple(k for k, _ in keyed))


def _sphere_projection_entries(orbit: Orbit, perturb: float) -> np.ndarray:
    z = abs(orbit.members[0].coord[1])
    if orbit.size == 1:
        mat = np.array([[1.0 - z]], dtype=complex)
    elif orbit.size == 2:
        mat = np.array([[z, 0.0], [0.0, z]], dtype=complex)
    else:
        u1, u2 = orbit.members[0], orbit.members[1]
        c = math.sqrt(0.5 * z * (1.0 - z))
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[1, 1] = 1.0 - z
        mat[2, 2] = mat[3, 3] = z
        for i, u in ((0, u1), (1, u2)):
            mat[i, 2] = c
            mat[2, i] = c
            phase = np.exp(-1j * u.coord[0])
            mat[i, 3] = phase * c
            mat[3, i] = np.conj(phase) * c
    if perturb:
        mat[0, 0] += perturb
    return mat


def reference_entries(f, orbit: Orbit) -> np.ndarray:
    """The element's matrix over one fiber."""
    rule = f.rule
    if isinstance(rule, SphereProjectionRule):
        return _sphere_projection_entries(orbit, rule.perturb_first_diag)
    if isinstance(rule, ScalarRule):
        return rule.c * np.eye(orbit.size, dtype=complex)
    if isinstance(rule, GridRule):
        return rule.lookup(orbit.base_label).copy()
    if isinstance(rule, IndicatorRule):
        diag = [1.0 if any(p.contains(m) for p in rule.region.pieces) else 0.0 for m in orbit.members]
        return np.diag(np.array(diag, dtype=complex))
    if isinstance(rule, AdjointRule):
        return reference_entries(rule.inner, orbit).conj().T
    if isinstance(rule, SumRule):
        return reference_entries(rule.left, orbit) + reference_entries(rule.right, orbit)
    if isinstance(rule, ProductRule):
        return reference_entries(rule.left, orbit) @ reference_entries(rule.right, orbit)
    if isinstance(rule, RestrictRule):
        big = reference_evaluate(rule.inner, rule.inner.model.from_factor(rule.side, orbit.members[0]))
        if big.size != orbit.size:
            raise IncompatibilityError("restricted fiber size mismatch")
        return big.entries
    raise TypeError(f"unknown rule {rule!r}")


def reference_evaluate(f, x: PointRef) -> FiberMatrix:
    """The fiber matrix of an element at a base point, from the scalar oracles."""
    orbit = scalar_orbit(f.model, x)
    return FiberMatrix(orbit, reference_entries(f, orbit))


def reference_orbit(model, y: PointRef) -> Orbit:
    """The fiber through y in canonical order, from ``reference_members``."""
    keyed = sorted((qkey(m), m) for m in reference_members(model, model.normalize(y)))
    return Orbit(tuple(m for _, m in keyed), tuple(k for k, _ in keyed))


def reference_members(model, y: PointRef) -> list[PointRef]:
    """Members of the fiber through a normalized point, any order."""
    return _MEMBERS[type(model)](model, y)


def _solenoid(model: SolenoidAabAb, y: PointRef) -> list[PointRef]:
    theta = y.coord[0]
    if theta in model.MARKS:
        return [y]
    if theta < 1.0:
        return [y, PointRef(0, (theta + 1.0,))]
    if theta < 2.0:
        return [PointRef(0, (theta - 1.0,)), y]
    return [y]


def _broken_heart(model: BrokenHeart, y: PointRef) -> list[PointRef]:
    c = y.coord[0]
    if y.chart == 0:
        if c == 0.0:
            return [y]
        return [y, PointRef(1, (3.0 - c,)), PointRef(2, (3.0 - c,))]
    if c <= 1.0:
        return [y]
    h = 3.0 - c
    return [PointRef(0, (h,)), PointRef(1, (c,)), PointRef(2, (c,))]


def _twisted_sphere(model: TwistedSphere, y: PointRef) -> list[PointRef]:
    theta, z = y.coord
    if y.chart == 0:
        if z == 0.0:
            return [y]
        half = theta if theta < math.pi else theta - math.pi
    else:
        if abs(z) == 1.0:
            return [PointRef(1, (0.0, z)), PointRef(2, (0.0, z))]
        half = theta / 2.0
    return [
        PointRef(0, (half, z)),
        PointRef(0, (half + math.pi, z)),
        PointRef(1, (2.0 * half, z)),
        PointRef(2, (2.0 * half, z)),
    ]


def _pinch(model: PinchCircle, y: PointRef) -> list[PointRef]:
    t = y.coord[0]
    if t in model.split_points:
        return [y]
    return [PointRef(i, (t,)) for i in range(model.sheets)]


def _wedge(model: WedgeModel, y: PointRef) -> list[PointRef]:
    # The factors' fibers; one through either glue point is the glued point.
    glue = qkey(model.left_point), qkey(model.right_point)
    if y.chart < model.offset:
        local = reference_members(model.left, y)
        if glue[0] in [qkey(m) for m in local]:
            return [model.left_point]
        return local
    local = reference_members(model.right, PointRef(y.chart - model.offset, y.coord))
    if glue[1] in [qkey(m) for m in local]:
        return [model.left_point]
    return [PointRef(m.chart + model.offset, m.coord) for m in local]


def base_of(chart: CoverChart, s: float) -> tuple:
    """The base point at coordinate s of a cover chart, walking its pieces
    in order; raises ``DomainError`` if the chart holds no point there."""
    off = 0.0
    for piece in chart.pieces:
        if isinstance(piece, VertexPiece):
            if abs(s - off) <= TOL:
                return (piece.vertex,)
            continue
        length = piece.hi - piece.lo
        if off - TOL <= s <= off + length + TOL:
            local = min(max(s - off, 0.0), length)
            t = (piece.hi - local) if piece.reverse else (piece.lo + local)
            if piece.contains(t):
                return (piece.stratum, t)
        off += length
    raise DomainError(f"coordinate {s} outside cover chart")


def _cover(model: CoverModel, y: PointRef) -> list[PointRef]:
    # Down to the base point, then up into every chart that holds it.
    x = base_of(model.charts[y.chart], y.coord[0])
    members = []
    for j, cc in enumerate(model.charts):
        found = cc.locate(x)
        if found is not None:
            members.append(PointRef(j, found[:1]))
    return members


_MEMBERS = {
    SolenoidAabAb: _solenoid,
    BrokenHeart: _broken_heart,
    TwistedSphere: _twisted_sphere,
    PinchCircle: _pinch,
    WedgeModel: _wedge,
    CoverModel: _cover,
}


def periods(model) -> tuple[float | None, ...]:
    """Per chart, the period of its angular axis-0 coordinate (None if
    linear); other axes are always linear."""
    if isinstance(model, WedgeModel):
        return periods(model.left) + periods(model.right)
    period = {SolenoidAabAb: 3.0, TwistedSphere: TWO_PI, PinchCircle: 1.0}.get(type(model))
    return (period,) * model.chart_count


def classify_members(
    periods: tuple[float | None, ...],
    orbit: Orbit,
    target_orbits: dict[str, Orbit],
    last_distance: float,
) -> dict[int, tuple[str, int]]:
    """Match fiber members of the closest sample to branch-point lifts."""
    threshold = max(8.0 * last_distance, 64.0 * TOL)
    out: dict[int, tuple[str, int]] = {}
    for i, m in enumerate(orbit.members):
        for name, torbit in target_orbits.items():
            for lift_idx, lift in enumerate(torbit.members):
                if lift.chart != m.chart or len(lift.coord) != len(m.coord):
                    continue
                dist = 0.0
                for axis, (a, b) in enumerate(zip(m.coord, lift.coord)):
                    d = abs(a - b)
                    if axis == 0 and periods[m.chart] is not None:
                        d = min(d, periods[m.chart] - d)
                    dist = max(dist, d)
                if dist <= threshold:
                    out[i] = (name, lift_idx)
    return out


def reference_continuity(f, seqs) -> list[ContinuityDefect]:
    """The defects of ``check_branch_continuity``, with members matched by
    ``classify_members``."""
    model = f.model
    out = []
    for seq in seqs:
        orbits = [scalar_orbit(model, x) for x in seq.samples]
        if any(o.size != orbits[0].size for o in orbits):
            raise ValueError(f"fiber size changes along approach sequence {seq.direction!r}")
        values = [reference_entries(f, o) for o in orbits]
        target_orbits = {name: scalar_orbit(model, model.named_point(name))
                          for name in model.branch_class(seq.branch_class).members}
        limit_of = classify_members(periods(model), orbits[-1], target_orbits, seq.distances[-1])
        defect = 0.0
        for name, torbit in target_orbits.items():
            idxs = [(i, lift_idx) for i, (n, lift_idx) in limit_of.items() if n == name]
            if not idxs:
                continue
            target = reference_entries(f, torbit)
            for i, a in idxs:
                for j, b in idxs:
                    lim = extrapolate_limit([v[i, j] for v in values])
                    defect = max(defect, abs(lim - target[a, b]))
        out.append(ContinuityDefect(f"{seq.branch_class}:{seq.direction}", defect))
    return out
