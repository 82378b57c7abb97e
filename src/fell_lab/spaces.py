"""Combinatorial models of surjective local homeomorphisms onto compact
locally Hausdorff spaces.

A model describes a total space Y as a finite list of charts (intervals,
circles, sphere patches) and declares its fibers as data: per chart, the
``transitions``, partial affine maps that carry a point to the other
members of its fiber.  The ``partners``, maps between base points that no
open sets separate, are derived from them at the open ends of their
domains.  The groupoid R(psi) = {(x, y) : psi(x) = psi(y)} is generated by
the transitions.  Everything downstream reads this surface:

* ``resolve_orbits`` applies the transitions to many normalized points in
  columns and returns their fibers in canonical order (ascending chart id,
  then lexicographic coordinate), one block per fiber size, so that fiber
  matrices are indexed deterministically; ``resolve_orbit`` is its one-row
  call, and ``is_branch_point`` asks the partner maps;
* ``wedge`` glues two models at points with singleton fibers that are not
  branch points, and ``build_cover_groupoid`` turns a chart cover of a
  named base into the model whose fiber over x is the copies of x;
* ``approach_sequences`` walks into a branch class along each direction the
  class carries, and ``sample_base_points`` draws per-chart quasi-uniform
  grids plus the distinguished strata.

Point identity is float-based.  Coordinates are compared after quantizing
at 1e-9 (the membership tolerance for angles reduced modulo a period), so
re-resolving an orbit from any of its members yields an equal orbit even
though e.g. ``(theta + pi) - pi != theta`` in IEEE arithmetic.  Models are
immutable records whose constructor fields are their file form
(``read_json`` and ``write_json``); a model checks itself when constructed.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import math
import random
import types
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, ClassVar, NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

TOL = 1e-9
_QSCALE = 1e9
TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """A coordinate lies outside its chart's parameter domain."""


class CoverageError(ValueError):
    """A sampled base point is not covered by any chart."""


class InvalidWedgeError(ValueError):
    """A wedge point has a non-singleton fiber or is a branch point."""


class UnknownBranchClassError(ValueError):
    """A branch class name is not listed on the model."""


class ParameterError(ValueError):
    """A parameter or input value is malformed or outside its documented range."""


# Readers for values from outside the program (JSON files, CLI parameters):
# nothing is coerced, so a wrong kind of value is an error, never a guess.


def exact_int(value: object, what: str) -> int:
    """Exact data stays exact: anything but a JSON integer is rejected."""
    if type(value) is not int:  # excludes bool and float
        raise ParameterError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_bool(value: object, what: str) -> bool:
    """A flag: JSON true or false; no other value stands in for one."""
    if type(value) is not bool:
        raise ParameterError(f"{what} must be a JSON boolean, got {value!r}")
    return value


def finite_float(value: object, what: str) -> float:
    """A real number: a finite JSON integer or float (bool excluded)."""
    try:
        ok = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ParameterError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def json_str(value: object, what: str) -> str:
    if type(value) is not str:
        raise ParameterError(f"{what} must be a JSON string, got {value!r}")
    return value


def json_complex(value: object, what: str) -> complex:
    """A complex number: a JSON array ``[re, im]`` of two finite numbers."""
    if type(value) is not list or len(value) != 2:
        raise ParameterError(f"{what} must be a JSON array [re, im], got {value!r}")
    return complex(finite_float(value[0], what), finite_float(value[1], what))


def json_object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_array(value: object, what: str) -> list:
    if type(value) is not list:
        raise ParameterError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def json_keys(value: object, keys: tuple[str, ...], what: str, optional: tuple = ()) -> dict:
    """A JSON object with no key outside ``keys``, and every key not ``optional``."""
    d = json_object(value, what)
    for key in d:
        if key not in keys:
            raise ParameterError(f"{what} has no key {key!r}; it reads {', '.join(keys)}")
    for key in keys:
        if key not in d and key not in optional:
            raise ParameterError(f"{what} is missing the key {key!r}")
    return d


def read_json(tp: object, value: object, what: str) -> object:
    """Read a JSON value as the type ``tp`` declares, coercing nothing.

    Scalars go through the readers above, ``tuple[X, ...]`` is an array of
    X, ``X | None`` reads X, and a ``SpaceModel`` is read by its ``kind``.
    A dataclass or NamedTuple is an object keyed by its constructor's
    fields, a field with a default may be left out, and any other key is an
    error that names it.  A union of records reads an object as the first
    member whose first field it names, and any other value as the last
    member.  ``what`` names the value in messages.
    """
    return _reader(tp, what)(value)


def write_json(value: object) -> object:
    """The JSON value that ``read_json`` reads back as ``value``.

    A record is an object of its fields, and a model's object names its
    ``kind`` first; a tuple is an array; a scalar is itself.
    """
    if hasattr(value, "_fields"):  # a NamedTuple
        return {name: write_json(x) for name, x in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [write_json(x) for x in value]
    if is_dataclass(value):
        out = {"kind": value.kind} if isinstance(value, SpaceModel) else {}
        for f in fields(value):
            out[f.name] = write_json(getattr(value, f.name))
        return out
    return value


_SCALARS = {int: exact_int, float: finite_float, bool: json_bool, str: json_str,
            complex: json_complex}


@functools.cache
def _reader(tp: object, what: str) -> Callable[[object], object]:
    """The reader of one type under one name: a field's or a caller's fixed name."""
    if tp in _SCALARS:
        scalar = _SCALARS[tp]
        return lambda value: scalar(value, what)
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item_what = f"{what}[]"
        scalar = _SCALARS.get(args[0])
        item = None if scalar else _reader(args[0], item_what)

        def read_array(value: object) -> tuple:
            if scalar:  # the common case, without a call per item
                return tuple([scalar(x, item_what) for x in json_array(value, what)])
            return tuple([item(x) for x in json_array(value, what)])

        return read_array
    if origin in (Union, types.UnionType):
        *firsts, last = [a for a in args if a is not type(None)]
        keyed = [(next(iter(inspect.signature(a).parameters)), _reader(a, what)) for a in firsts]
        read_last = _reader(last, what)

        def read_union(value: object) -> object:
            named = [read for key, read in keyed if isinstance(value, dict) and key in value]
            return (named + [read_last])[0](value)

        return read_union if keyed else read_last
    if tp is SpaceModel:  # looked up per call, so that a rebound model_from_dict is used
        return lambda value: model_from_dict(value)
    if not (is_dataclass(tp) or hasattr(tp, "_fields")):  # a dataclass or a NamedTuple
        raise TypeError(f"no JSON reader for {tp!r}")
    params = inspect.signature(tp).parameters
    names = tuple(params)
    optional = tuple(name for name, p in params.items() if p.default is not p.empty)
    hints = get_type_hints(tp)
    readers = {name: _reader(hints[name], name) for name in names}
    # A model's object also names its kind, which selected the class.
    keys = ("kind",) + names if issubclass(tp, SpaceModel) else names

    def read_record(value: object):
        d = json_keys(value, keys, what, optional)
        return tp(**{k: readers[k](v) for k, v in d.items() if k in readers})

    return read_record


class PointRef(NamedTuple):
    """A point of the total space: chart id plus chart coordinates."""

    chart: int
    coord: tuple[float, ...]


def qkey(p: PointRef) -> tuple:
    """Quantized identity key for a point (1e-9 coordinate resolution)."""
    return (p.chart, tuple([round(c * _QSCALE) for c in p.coord]))


@dataclass(frozen=True)
class Interval:
    """A set of values of one coordinate; a closed end reaches TOL past its value."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, x: float) -> bool:
        lo, hi = self.bounds
        return lo <= x < hi

    @functools.cached_property
    def bounds(self) -> tuple[float, float]:
        """``(lo, hi)`` such that the interval holds exactly the floats of [lo, hi)."""
        return (self.lo - TOL if self.lo_closed else math.nextafter(self.lo, math.inf),
                math.nextafter(self.hi + TOL, math.inf) if self.hi_closed else float(self.hi))


class AffineMap(NamedTuple):
    """A partial map between charts: a point of chart ``source`` in the box
    ``domain`` goes to the point of chart ``target`` at ``scale * c + shift``,
    axis by axis."""

    source: int
    domain: tuple[Interval, ...]
    target: int
    scale: tuple[float, ...]
    shift: tuple[float, ...]

    def __call__(self, y: PointRef) -> PointRef:
        return PointRef(self.target, tuple([s * c + h for s, c, h in zip(self.scale, y.coord, self.shift)]))

    def covers(self, y: PointRef) -> bool:
        return all(iv.contains(c) for iv, c in zip(self.domain, y.coord))


def _snap(x: float, targets: tuple[float, ...]) -> float | None:
    """The first target that ``Interval(target, target)`` holds x for, if any.

    The targets are sorted and more than 2·TOL apart, so only the two that
    bisection puts round x can hold it; the lower one is tried first.
    """
    i = bisect.bisect_left(targets, x)
    if i and x <= targets[i - 1] + TOL:
        return targets[i - 1]
    if i < len(targets) and targets[i] - TOL <= x:
        return targets[i]
    return None


def _wrap(x: float, period: float, marks: tuple[float, ...]) -> float:
    """x reduced to [0, period), with the TOL band round a mark, or else
    round the period, snapped onto it."""
    x %= period
    snapped = _snap(x, marks)
    if snapped is None and period - TOL <= x:
        snapped = period
    return x if snapped is None else snapped % period


@dataclass(frozen=True)
class BranchClass:
    """Named base points that the listed directions approach, with the
    directions as (direction name, distance -> sample) pairs; the members
    are the points that ``check_branch_continuity`` matches limits against."""

    name: str
    members: tuple[str, ...]
    directions: tuple[tuple[str, Callable[[float], PointRef]], ...] = field(
        default=(), compare=False
    )


@dataclass(frozen=True)
class Orbit:
    """A full fiber in canonical order; the index set of fiber matrices.

    ``keys`` holds the ``qkey`` of each member, in the same order and no two
    equal (``resolve_orbits`` checks); orbits compare and hash by them alone.
    """

    members: tuple[PointRef, ...] = field(compare=False)
    keys: tuple[tuple, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def base_label(self) -> tuple:
        """Opaque identifier of the base point (key of the first member)."""
        return self.keys[0]


@dataclass(frozen=True)
class ApproachSequence:
    """Geometric samples walking into a branch class along one direction."""

    branch_class: str
    direction: str
    samples: tuple[PointRef, ...]
    distances: tuple[float, ...]

    def __post_init__(self) -> None:
        ds = self.distances
        if len(ds) != len(self.samples) or len(ds) < 2:
            raise ValueError("need one distance per sample, at least two samples")
        if any(b >= a for a, b in zip(ds, ds[1:])) or ds[-1] <= 0:
            raise ValueError("distances must be strictly decreasing and positive")


def _per_chart(build: Callable) -> Callable:
    """A model's method of one chart, computed once per model and chart."""

    @functools.wraps(build)
    def cached(self: SpaceModel, chart: int):
        memo = self.__dict__.setdefault("_chart_memo", {})  # models are frozen: past __setattr__
        if (build, chart) not in memo:
            memo[build, chart] = build(self, chart)
        return memo[build, chart]

    return cached


class SpaceModel:
    """Shared surface of all models; subclasses fill in the geometry."""

    kind: ClassVar[str]  # the file-format name, declared once per model class
    chart_count: int  # charts are 0 .. chart_count - 1; a class attribute or a property
    branch_classes: tuple[BranchClass, ...] = ()  # none by default; a property where listed

    def normalize(self, y: PointRef) -> PointRef:
        """Validate a point and reduce its coordinates to canonical range."""
        raise NotImplementedError

    def try_normalize(self, y: PointRef) -> PointRef | None:
        """``normalize(y)``, or None if y is no point of the model."""
        try:
            return self.normalize(y)
        except DomainError:
            return None

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """The maps from ``chart`` onto the other members of a fiber: they
        reach every other member of the fiber of each normalized point, none
        is the identity, and no normalized point is in two unequal domains."""
        return ()

    @_per_chart
    def partners(self, chart: int) -> tuple[AffineMap, ...]:
        """The maps out of ``chart`` between points that no open sets separate.

        A sequence that runs into an open end e of a transition m's domain
        converges to e and to m(e).  So per open end of each axis of each
        domain, a probe TOL/2 past the end, its other axes at the centre of
        the box, is normalized into the end's snap band: that is e.  If e
        stays in ``chart`` and m(e) normalizes to a point outside the fiber
        of e, m with that axis cut down to e's coordinate is a partner map.
        """
        ends = []  # per open end of an axis of a domain: its map, the end e and the map cut down to e
        for m in self.transitions(chart):
            centre = [(iv.lo + iv.hi) / 2 for iv in m.domain]
            for a, iv in enumerate(m.domain):
                for x, closed in ((iv.lo - TOL / 2, iv.lo_closed), (iv.hi + TOL / 2, iv.hi_closed)):
                    probe = PointRef(chart, (*centre[:a], x, *centre[a + 1:]))
                    e = None if closed else self.try_normalize(probe)
                    if e is not None and e.chart == chart:
                        at_e = (*m.domain[:a], Interval(e.coord[a], e.coord[a]), *m.domain[a + 1:])
                        ends.append((m, e, m._replace(domain=at_e)))
        fibers = {row: set(block.orbit(i).keys) for block in resolve_orbits(self, [e for _, e, _ in ends])
                  for i, row in enumerate(block.rows.tolist())}  # per end, the keys of its fiber
        return tuple(dict.fromkeys(  # each map once, in order
            cut for row, (m, e, cut) in enumerate(ends)
            if (t := self.try_normalize(m(e))) is not None and qkey(t) not in fibers[row]))

    @_per_chart
    def _cells(self, chart: int) -> tuple:
        """The cell grid of a chart's transitions: per axis the sorted ends of
        their domains, a table from each cell to its case (a domain) or -1, and
        per case its image count and its (targets, scales, shifts), padded."""
        by_domain: dict[tuple, list[AffineMap]] = {}
        for m in self.transitions(chart):
            by_domain.setdefault(m.domain, []).append(m)
        ends = [[iv.bounds for iv in box] for box in by_domain] or [[()]]
        edges = [np.array(sorted({b for bounds in axis for b in bounds})) for axis in zip(*ends)]
        table = np.full([len(e) + 1 for e in edges], -1)
        for j in reversed(range(len(by_domain))):  # the first domain wins a shared snap band
            table[tuple(slice(*np.searchsorted(e, b, "right")) for e, b in zip(edges, ends[j]))] = j
        maps = list(by_domain.values()) + [[]]  # case -1 is the last: no images
        width, blank = max(map(len, maps)), (0.0,) * len(edges)
        images = [np.array([[getattr(m, f) for m in ms] + [pad] * (width - len(ms)) for ms in maps])
                  for f, pad in (("target", 0), ("scale", blank), ("shift", blank))]
        return edges, table, np.array([len(ms) for ms in maps]), images

    def named_points(self) -> dict[str, PointRef]:
        return {}

    def named_point(self, name: str) -> PointRef:
        try:
            return self.named_points()[name]
        except KeyError:
            raise UnknownBranchClassError(f"unknown named point {name!r}") from None

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        raise NotImplementedError

    def branch_class(self, name: str) -> BranchClass:
        for c in self.branch_classes:
            if c.name == name:
                return c
        raise UnknownBranchClassError(f"unknown branch class {name!r}")

    def is_branch_point(self, y: PointRef) -> bool:
        """Whether the normalized point y lies in the domain of a partner map."""
        return any(m.covers(y) for m in self.partners(y.chart))

    def to_dict(self) -> dict:
        """The form ``model_from_dict`` reads: ``kind`` plus each constructor field."""
        return write_json(self)


class OrbitBlock(NamedTuple):
    """The fibers of one size k through m points, as columns: each point's
    input row, ascending, and per member in canonical order its chart
    ``(m, k)``, coordinates ``(m, k, d)`` and ``qkey`` integers ``(m, k, d)``."""

    rows: np.ndarray
    charts: np.ndarray
    coords: np.ndarray
    keys: np.ndarray

    @property
    def size(self) -> int:
        return self.charts.shape[1]

    def labels(self) -> list[tuple]:
        """Each fiber's base label, the key of its first member."""
        return list(zip(self.charts[:, 0].tolist(), map(tuple, self.keys[:, 0].tolist())))

    def orbit(self, i: int) -> Orbit:
        charts, coords, keys = self.charts[i].tolist(), self.coords[i].tolist(), self.keys[i].tolist()
        return Orbit(tuple(map(PointRef, charts, map(tuple, coords))), tuple(zip(charts, map(tuple, keys))))


def resolve_orbits(model: SpaceModel, points: Sequence[PointRef]) -> list[OrbitBlock]:
    """The fibers through points, one block per fiber size, ascending.

    Each point goes through ``normalize`` in order.  Then one ``searchsorted``
    per axis finds its cell in its chart's cell grid, the cell's maps give the
    other members as arrays, and one ``lexsort`` puts every fiber in canonical
    order; resolving again from any member gives an equal fiber.
    """
    ys = [model.normalize(y) for y in points]
    charts, coords = np.array([y.chart for y in ys], dtype=np.int64), np.array([y.coord for y in ys], float)
    if not np.isfinite(coords).all():  # a NaN, which a period reduces an infinity to, has no key
        raise ValueError("cannot resolve a point with a coordinate that is not finite")
    case, size = np.empty_like(charts), np.empty_like(charts)
    for c in set(charts.tolist()):
        at = charts == c
        edges, table, counts, _ = model._cells(c)
        case[at] = table[tuple(np.searchsorted(e, coords[at, a], "right") for a, e in enumerate(edges))]
        size[at] = counts[case[at]] + 1
    blocks = []
    for k in sorted(set(size.tolist())):
        rows = np.flatnonzero(size == k)
        ch, xs = np.repeat(charts[rows, None], k, axis=1), np.repeat(coords[rows, None], k, axis=1)
        for c in set(ch[:, 0].tolist()) if k > 1 else ():
            at = ch[:, 0] == c
            targets, scale, shift = (a[case[rows[at]], :k - 1] for a in model._cells(c)[3])
            ch[at, 1:], xs[at, 1:] = targets, xs[at, :1] * scale + shift
        keys = np.rint(xs * _QSCALE).astype(np.int64)
        order = np.lexsort([keys[..., a] for a in reversed(range(keys.shape[2]))] + [ch], axis=-1)
        at = np.arange(len(rows))[:, None], order
        ch, xs, keys = ch[at], xs[at], keys[at]
        if ((ch[:, 1:] == ch[:, :-1]) & (keys[:, 1:] == keys[:, :-1]).all(axis=2)).any():
            raise ValueError("orbit has duplicate members")
        blocks.append(OrbitBlock(rows, ch, xs, keys))
    return blocks


def resolve_orbit(model: SpaceModel, y: PointRef) -> Orbit:
    """The full fiber through y in canonical order: one row of ``resolve_orbits``."""
    return resolve_orbits(model, [y])[0].orbit(0)


def sample_count(n: int) -> int:
    """A requested number of samples: at least 1, never raised to a minimum quietly."""
    if n < 1:
        raise ParameterError(f"sample count must be at least 1, got {n}")
    return n


def sample_base_points(model: SpaceModel, n: int = 2000, seed: int = 0) -> list[PointRef]:
    """Quasi-uniform per-chart samples plus all distinguished strata.

    Raises ``ParameterError`` for ``n < 1``; a model may draw more than ``n``
    points, since every chart gets a minimal grid and the strata are added.
    """
    return model.sample_points(sample_count(n), seed)


def approach_sequences(
    model: SpaceModel, branch_class: str, n: int, eps0: float
) -> list[ApproachSequence]:
    """One geometric sample sequence per approach direction into a class.

    Distances are eps0 * 2^-i for i < n.  eps0 must be small enough that all
    samples stay inside the incident edges (0 < eps0 <= 0.25).
    """
    if n < 2:
        raise ParameterError("need at least two samples per sequence")
    if not (0.0 < eps0 <= 0.25):
        raise ParameterError("eps0 must lie in (0, 0.25]")
    distances = tuple(eps0 * 2.0 ** (-i) for i in range(n))
    return [
        ApproachSequence(
            branch_class, direction, tuple(model.normalize(at(d)) for d in distances), distances
        )
        for direction, at in model.branch_class(branch_class).directions
    ]


def _jittered_grid(count: int, lo: float, hi: float, rng: random.Random) -> list[float]:
    if count <= 0:
        return []
    step = (hi - lo) / count
    return [lo + (i + 0.5 + 0.35 * (rng.random() - 0.5)) * step for i in range(count)]


@dataclass(frozen=True)
class SolenoidAabAb(SpaceModel):
    """Circle mapping onto two circles joined across a split triple point.

    The covering circle has period 3 with marked points at 0 (ab), 1 (aa)
    and 2 (ba).  The arcs (0,1) and (1,2) both map onto the first circle of
    the base ("edge a", doubly covered), the arc (2,3) maps onto the second
    ("edge b", singly covered), and the marks map to the split points: aa
    is not separated from ab or from ba, and ab and ba are separated.
    """

    kind: ClassVar[str] = "solenoid_aab_ab"
    MARKS: ClassVar[tuple[float, ...]] = (0.0, 1.0, 2.0)
    chart_count: ClassVar[int] = 1

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        return (BranchClass("wedge", ("ab", "ba", "aa"), (
            ("a@0", lambda d: PointRef(0, (d,))),
            ("a@1", lambda d: PointRef(0, (1.0 - d,))),
            ("b@0", lambda d: PointRef(0, (2.0 + d,))),
            ("b@1", lambda d: PointRef(0, (3.0 - d,))),
        )),)

    def named_points(self) -> dict[str, PointRef]:
        return {
            "ab": PointRef(0, (0.0,)),
            "aa": PointRef(0, (1.0,)),
            "ba": PointRef(0, (2.0,)),
            "b_mid": PointRef(0, (2.5,)),
        }

    def normalize(self, y: PointRef) -> PointRef:
        if y.chart != 0 or len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for {self.kind}")
        return PointRef(0, (_wrap(y.coord[0], 3.0, self.MARKS),))

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """The two arcs over edge a trade places: theta <-> theta + 1."""
        return tuple(AffineMap(0, (Interval(lo, lo + 1.0, False, False),), 0, (1.0,), (shift,))
                     for lo, shift in ((0.0, 1.0), (1.0, -1.0)) if chart == 0)

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        pts = []
        for theta in _jittered_grid(max(n, 3), 0.0, 3.0, rng):
            if min(abs(theta - m) for m in self.MARKS + (3.0,)) < 1e-6:
                continue
            pts.append(PointRef(0, (theta,)))
        pts.extend(self.named_points()[k] for k in ("ab", "aa", "ba"))
        return pts


@dataclass(frozen=True)
class BrokenHeart(SpaceModel):
    """Three-legged space whose vertical open segments are identified.

    Chart 0 is the central leg [0, 2): coordinate 0 is the bottom point p,
    (0, 2) is the central copy of the identified segment (open at the top).
    Charts 1 and 2 are the left/right legs (0, 3): (0, 1) is the lobe arc
    out of p, coordinate 1 is the top point (q on the left, r on the right)
    and (1, 3) descends the leg's copy of the identified segment (open at
    the bottom).  The fiber over a segment point has size three; q and r
    form the unique branch class.
    """

    kind: ClassVar[str] = "broken_heart"
    chart_count: ClassVar[int] = 3

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        return (BranchClass("top", ("q", "r"), (
            ("segment@top", lambda d: PointRef(0, (2.0 - d,))),
            ("lobe_left", lambda d: PointRef(1, (1.0 - d,))),
            ("lobe_right", lambda d: PointRef(2, (1.0 - d,))),
        )),)

    def named_points(self) -> dict[str, PointRef]:
        return {
            "p": PointRef(0, (0.0,)),
            "q": PointRef(1, (1.0,)),
            "r": PointRef(2, (1.0,)),
        }

    def normalize(self, y: PointRef) -> PointRef:
        if len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for {self.kind}")
        c = y.coord[0]
        if y.chart == 0:
            if abs(c) <= TOL:
                return PointRef(0, (0.0,))
            if not (0.0 < c < 2.0 - TOL):
                raise DomainError(f"coordinate {c} outside central leg [0, 2)")
            return PointRef(0, (c,))
        if y.chart in (1, 2):
            snapped = _snap(c, (1.0,))
            if snapped is not None:
                return PointRef(y.chart, (1.0,))
            if not (TOL < c < 3.0 - TOL):
                raise DomainError(f"coordinate {c} outside leg (0, 3)")
            return PointRef(y.chart, (c,))
        raise DomainError(f"unknown chart {y.chart} for {self.kind}")

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """The identified segment: c <-> 3 - c between the central leg's (0, 2)
        and each leg's (1, 3), and c <-> c between the two legs."""
        segment = Interval(0.0, 2.0, False, False) if chart == 0 else Interval(1.0, 3.0, False, False)
        images = {0: ((1, -1.0, 3.0), (2, -1.0, 3.0)), 1: ((0, -1.0, 3.0), (2, 1.0, 0.0)),
                  2: ((0, -1.0, 3.0), (1, 1.0, 0.0))}
        return tuple(AffineMap(chart, (segment,), t, (a,), (b,)) for t, a, b in images.get(chart, ()))

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        per = max(n // 3, 2)
        pts = [PointRef(0, (h,)) for h in _jittered_grid(per, 0.0, 2.0, rng)]
        for chart in (1, 2):
            for w in _jittered_grid(per, 0.0, 3.0, rng):
                if abs(w - 1.0) < 1e-6:
                    continue
                pts.append(PointRef(chart, (w,)))
        pts.extend(self.named_points().values())
        return pts


@dataclass(frozen=True)
class TwistedSphere(SpaceModel):
    """Sphere quotient whose equator wraps twice, covered by three patches.

    Chart 0 (U) is the sphere minus the poles in cylindrical coordinates
    (theta, z), theta in [0, 2pi), z in (-1, 1); it covers each non-equator
    base point twice, via (theta, z) and (theta + pi, z).  Charts 1 and 2
    (V1, V2) are two copies of the sphere minus the equator; the copy at
    angle 2*theta covers the same base point once each, and they alone
    cover the two poles.  The fiber over a generic point has size four,
    over a pole size two, and over an equator point size one; equator
    points at angles theta and theta + pi are non-separated partners.

    The branch locus is the whole equator; the listed branch class holds a
    representative pair at ``equator_theta``.
    """

    kind: ClassVar[str] = "twisted_sphere"
    chart_count: ClassVar[int] = 3
    equator_theta: float = 0.3

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        t0 = self.equator_theta % TWO_PI
        return (BranchClass("equator", ("equator_rep", "equator_partner"), (
            ("z+", lambda d: PointRef(0, (t0, d))),
            ("z-", lambda d: PointRef(0, (t0, -d))),
        )),)

    def named_points(self) -> dict[str, PointRef]:
        t0 = self.equator_theta % TWO_PI
        return {
            "north_pole": PointRef(1, (0.0, 1.0)),
            "south_pole": PointRef(1, (0.0, -1.0)),
            "equator_rep": PointRef(0, (t0, 0.0)),
            "equator_partner": PointRef(0, ((t0 + math.pi) % TWO_PI, 0.0)),
        }

    def normalize(self, y: PointRef) -> PointRef:
        if len(y.coord) != 2:
            raise DomainError(f"invalid point {y!r} for {self.kind}")
        theta, z = y.coord
        # Collapse the seam bands at 0/2pi and at pi, where the half-turn
        # partner angle would otherwise wrap inconsistently.
        theta = _wrap(theta, TWO_PI, (0.0, math.pi))
        if abs(z) <= TOL:
            z = 0.0
        if y.chart == 0:
            if not (-1.0 < z < 1.0):
                raise DomainError("poles are not in the twice-covering patch")
            return PointRef(0, (theta, z))
        if y.chart in (1, 2):
            if _snap(abs(z), (1.0,)):
                return PointRef(y.chart, (0.0, math.copysign(1.0, z)))
            if z == 0.0 or not (-1.0 < z < 1.0):
                raise DomainError(
                    "equator is not in the once-covering patches"
                )
            return PointRef(y.chart, (theta, z))
        raise DomainError(f"unknown chart {y.chart} for {self.kind}")

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """Off the equator, (theta, z) on U is (theta +- pi, z) on U and
        (2 theta, z) on V1 and V2; the poles of V1 and V2 are each other."""
        sides = (Interval(-1.0, 0.0, False, False), Interval(0.0, 1.0, False, False))
        halves = (Interval(0.0, math.pi, True, False), Interval(math.pi, TWO_PI, True, False))
        if chart == 0:  # on the i-th half turn: 2 theta is taken modulo 2 pi
            return tuple(AffineMap(0, (half, z), t, (scale, 1.0), (shift, 0.0))
                         for i, half in enumerate(halves) for z in sides for t, scale, shift
                         in ((0, 1.0, math.pi - i * TWO_PI), (1, 2.0, -i * TWO_PI), (2, 2.0, -i * TWO_PI)))
        if chart not in (1, 2):
            return ()
        images = ((0, 0.5, 0.0), (0, 0.5, math.pi), (3 - chart, 1.0, 0.0))
        return tuple(AffineMap(chart, (Interval(0.0, TWO_PI, True, False), z), t, (scale, 1.0),
                               (shift, 0.0)) for z in sides for t, scale, shift in images) + tuple(
            AffineMap(chart, (Interval(0.0, 0.0), Interval(z, z)), 3 - chart, (1.0, 1.0), (0.0, 0.0))
            for z in (-1.0, 1.0))

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        pts: list[PointRef] = []

        def patch_grid(chart: int, count: int) -> None:
            n_theta = max(int(math.sqrt(2 * count)), 2)
            n_z = max(-(-count // n_theta), 2)
            for theta in _jittered_grid(n_theta, 0.0, TWO_PI, rng):
                for z in _jittered_grid(n_z, -1.0, 1.0, rng):
                    if abs(z) < 1e-6 or abs(z) > 1.0 - 1e-6:
                        continue
                    pts.append(PointRef(chart, (theta % TWO_PI, z)))

        patch_grid(0, max(n // 2, 8))
        patch_grid(1, max(n // 4, 4))
        patch_grid(2, max(n // 4, 4))
        i = 0
        while len(pts) < n:  # top up losses from the excluded z-bands
            theta = (0.5 + i) * TWO_PI * 0.381966011250105
            pts.append(PointRef(0, (theta % TWO_PI, 0.25 + 0.5 * ((i % 7) / 7.0))))
            i += 1
        named = self.named_points()
        pts.append(named["north_pole"])
        pts.append(named["south_pole"])
        t0 = self.equator_theta % TWO_PI
        for i in range(32):
            pts.append(PointRef(0, ((t0 + i * TWO_PI / 32.0) % TWO_PI, 0.0)))
        pts.append(PointRef(0, (t0, 0.5)))
        pts.append(PointRef(0, (t0, -0.5)))
        return pts


@dataclass(frozen=True)
class PinchCircle(SpaceModel):
    """Circle with each point of a finite set split into k copies.

    The total space is k disjoint circles of period 1 and the projection
    forgets the sheet; points of the split set stay separate per sheet
    (singleton fibers), every other fiber has size k.  The split set is
    trivially contained in an evenly covered open set because the cover is
    the trivial one.
    """

    kind: ClassVar[str] = "pinch"
    split_points: tuple[float, ...]
    sheets: int

    def __post_init__(self) -> None:
        if self.sheets < 2:
            raise ParameterError("sheet count must be at least 2")
        pts = tuple(sorted(p % 1.0 for p in self.split_points))
        gaps = [b - a for a, b in zip(pts, pts[1:])]
        if len(pts) > 1:
            gaps.append(pts[0] + 1.0 - pts[-1])
        if any(g <= 4 * TOL for g in gaps):
            raise ParameterError("split points must be distinct on the circle")
        object.__setattr__(self, "split_points", pts)

    @property
    def chart_count(self) -> int:
        return self.sheets

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        def split_class(idx: int, a: float) -> BranchClass:
            return BranchClass(
                f"split:{idx}",
                tuple(f"split:{idx}:{i}" for i in range(self.sheets)),
                (("ccw", lambda d: PointRef(0, ((a + d) % 1.0,))),
                 ("cw", lambda d: PointRef(0, ((a - d) % 1.0,)))),
            )

        return tuple(split_class(idx, a) for idx, a in enumerate(self.split_points))

    def named_points(self) -> dict[str, PointRef]:
        return {f"split:{idx}:{i}": PointRef(i, (a,))
                for idx, a in enumerate(self.split_points) for i in range(self.sheets)}

    def normalize(self, y: PointRef) -> PointRef:
        if not (0 <= y.chart < self.sheets) or len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for {self.kind}")
        return PointRef(y.chart, (_wrap(y.coord[0], 1.0, self.split_points),))

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """Off the split points, t on one sheet is t on every other: per
        source sheet, one map per arc and other sheet, so a sheet's maps are
        built when a point of it is first resolved."""
        ends = (0.0,) + self.split_points + (1.0,)  # an arc is closed at 0 unless 0 is split
        arcs = [Interval(a, b, a not in self.split_points, False) for a, b in zip(ends, ends[1:]) if a < b]
        return tuple(AffineMap(chart, (arc,), sheet, (1.0,), (0.0,)) for arc in arcs
                     for sheet in range(self.sheets) if sheet != chart and 0 <= chart < self.sheets)

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        pts = []
        for t in _jittered_grid(max(n, 4), 0.0, 1.0, rng):
            if any(abs(t - a) < 1e-6 for a in self.split_points):
                continue
            pts.append(PointRef(0, (t,)))
        pts.extend(self.named_points().values())
        return pts


@dataclass(frozen=True)
class WedgeModel(SpaceModel):
    """Two models glued at one point each.

    Construction checks that both glue points have singleton fibers and are
    not branch points (``is_branch_point``), the condition under which the
    glued projection stays a local homeomorphism, and stores them
    normalized.

    The right factor's charts are shifted past the left factor's.  The glued
    point is canonically represented by the left factor's wedge point; its
    fiber is a singleton.  Named points and branch classes of the factors
    are exposed with ``left:``/``right:`` prefixes.
    """

    kind: ClassVar[str] = "wedge"
    left: SpaceModel
    right: SpaceModel
    left_point: PointRef
    right_point: PointRef

    def __post_init__(self) -> None:
        for name, factor in (("left_point", self.left), ("right_point", self.right)):
            y = factor.normalize(getattr(self, name))
            size = resolve_orbit(factor, y).size
            if size != 1:
                raise InvalidWedgeError(f"wedge point {y!r} has fiber of size {size}, need 1")
            if factor.is_branch_point(y):
                raise InvalidWedgeError(f"wedge point {y!r} is a branch point")
            object.__setattr__(self, name, y)

    @functools.cached_property  # read on every shift of a right-factor point
    def offset(self) -> int:
        return self.left.chart_count

    @property
    def chart_count(self) -> int:
        return self.left.chart_count + self.right.chart_count

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        """The factors' classes, with prefixed names and members and with
        directions that walk in the wedge's charts."""

        def lift(side: str, at: Callable[[float], PointRef]) -> Callable[[float], PointRef]:
            return lambda d: self.from_factor(side, at(d))

        return tuple(
            BranchClass(
                f"{side}:{c.name}",
                tuple(f"{side}:{m}" for m in c.members),
                tuple((name, lift(side, at)) for name, at in c.directions),
            )
            for side, factor in (("left", self.left), ("right", self.right))
            for c in factor.branch_classes
        )

    def from_factor(self, side: str, y: PointRef) -> PointRef:
        """The wedge's point for the point y of its ``side`` factor ("left" or "right")."""
        return PointRef(y.chart + self.offset, y.coord) if side == "right" else y

    def named_points(self) -> dict[str, PointRef]:
        out = {"wedge_point": self.left_point}
        for side, factor in (("left", self.left), ("right", self.right)):
            for name, p in factor.named_points().items():
                out[f"{side}:{name}"] = self.from_factor(side, p)
        return out

    def normalize(self, y: PointRef) -> PointRef:
        """A factor's normalized point; either glue point is the glued point
        ``left_point``."""
        if y.chart < 0:
            raise DomainError(f"invalid chart {y.chart}")
        if y.chart < self.offset:
            side, local, glue = "left", self.left.normalize(y), self._glue_keys[0]
        else:
            local = self.right.normalize(PointRef(y.chart - self.offset, y.coord))
            side, glue = "right", self._glue_keys[1]
        return self.left_point if qkey(local) == glue else self.from_factor(side, local)

    @functools.cached_property  # read on every normalize
    def _glue_keys(self) -> tuple[tuple, tuple]:
        return qkey(self.left_point), qkey(self.right_point)

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """A factor's transitions, with the right factor's charts shifted."""
        if chart < self.offset:
            return self.left.transitions(chart)
        k = self.offset
        return tuple(m._replace(source=m.source + k, target=m.target + k)
                     for m in self.right.transitions(chart - k))

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        half = max(n // 2, 2)
        pts = list(self.left.sample_points(half, seed))
        pts.extend(self.from_factor("right", p) for p in self.right.sample_points(half, seed + 1))
        pts.append(self.left_point)
        return pts


# Gluing is construction: ``wedge(left, right, left_point, right_point)``.
wedge = WedgeModel


@dataclass(frozen=True)
class Span:
    """A linear run of a cover chart across one base stratum; the cover
    checks that lo < hi and that the run lies in the stratum."""

    stratum: str
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False
    reverse: bool = False

    def contains(self, t: float) -> bool:
        lo_ok = t >= self.lo - TOL if self.lo_closed else t > self.lo + TOL
        hi_ok = t <= self.hi + TOL if self.hi_closed else t < self.hi - TOL
        return lo_ok and hi_ok


@dataclass(frozen=True)
class VertexPiece:
    """A single named base vertex inside a cover chart."""

    vertex: str


@dataclass(frozen=True)
class CoverChart:
    """An open Hausdorff chart given as an ordered run of pieces.

    The chart parametrizes itself over [0, total span length]; vertices sit
    at the junction coordinates between spans.  The caller asserts that the
    resulting subset of the base is open and Hausdorff.
    """

    pieces: tuple[VertexPiece | Span, ...]

    def locate(self, point: tuple) -> tuple[float, float] | None:
        """Chart coordinate of a base point and the rate at which it moves
        with the stratum's coordinate (0 at a vertex), or None if the point
        is not in the chart; ``ParameterError`` if two pieces hold it."""
        pos, found = 0.0, []
        for piece in self.pieces:
            if isinstance(piece, VertexPiece):
                if point == (piece.vertex,):
                    found.append((pos, 0.0))
                continue
            if len(point) == 2 and point[0] == piece.stratum and piece.contains(point[1]):
                t = point[1]
                found.append((pos + (piece.hi - t), -1.0) if piece.reverse else (pos + (t - piece.lo), 1.0))
            pos += piece.hi - piece.lo
        if len(found) > 1:
            raise ParameterError(f"a cover chart holds the base point {point!r} twice")
        return found[0] if found else None


@dataclass(frozen=True)
class BaseSpace:
    """A described base: named one-dimensional strata plus named vertices."""

    strata: tuple[tuple[str, float, float, bool, bool], ...]
    vertices: tuple[str, ...]

    def grid(self, per_stratum: int) -> list[tuple]:
        pts: list[tuple] = [(v,) for v in self.vertices]
        for name, lo, hi, lo_closed, hi_closed in self.strata:
            step = (hi - lo) / per_stratum
            for i in range(per_stratum):
                pts.append((name, lo + (i + 0.5) * step))
            if lo_closed:
                pts.append((name, lo))
            if hi_closed:
                pts.append((name, hi))
        return pts


# The bases a cover names: the closed unit interval (one stratum, no vertices,
# Hausdorff), and two open edges a, b plus the split points ab, ba, aa.
_BASES = {
    "interval": BaseSpace(strata=(("x", 0.0, 1.0, True, True),), vertices=()),
    "aab_ab": BaseSpace(
        strata=(("a", 0.0, 1.0, False, False), ("b", 0.0, 1.0, False, False)),
        vertices=("ab", "ba", "aa"),
    ),
}


@dataclass(frozen=True)
class CoverModel(SpaceModel):
    """Model of the identity-on-charts projection from a chart cover of a base.

    The fiber over a base point is the set of its copies across all charts
    containing it.  Construction looks the base up by name (``"interval"``
    or ``"aab_ab"``) and raises ``ParameterError`` for any other, or for a
    piece that does not lie in the base; it then lists the cells of the base
    that each chart holds (``_copies``), and a cell that no chart holds
    raises ``CoverageError``, one that two pieces of a chart hold
    ``ParameterError``.  Hausdorffness of the individual charts is a
    precondition on the caller.
    """

    kind: ClassVar[str] = "cover"
    base: str
    charts: tuple[CoverChart, ...]

    def __post_init__(self) -> None:
        if self.base not in _BASES:
            raise ParameterError(f"unknown base space {self.base!r}")
        object.__setattr__(self, "charts", tuple(self.charts))
        base = self.base_space
        strata = {name: (lo, hi) for name, lo, hi, *_ in base.strata}
        for p in (p for cc in self.charts for p in cc.pieces):
            lo, hi = strata.get(getattr(p, "stratum", None), (math.inf, -math.inf))
            if not (p.vertex in base.vertices if isinstance(p, VertexPiece) else lo <= p.lo < p.hi <= hi):
                raise ParameterError(f"{p} does not lie in the {self.base!r} base")
        self._copies  # built now, so that an uncovered cell raises here

    @property
    def base_space(self) -> BaseSpace:
        return _BASES[self.base]

    @property
    def chart_count(self) -> int:
        return len(self.charts)

    def _lift(self, x: tuple) -> PointRef | None:
        """The copy of the base point x in the first chart that holds it, if any."""
        return next((PointRef(j, found[:1]) for j, cc in enumerate(self.charts)
                     if (found := cc.locate(x))), None)

    def named_points(self) -> dict[str, PointRef]:
        return {v: self._lift((v,)) for v in self.base_space.vertices}

    @functools.cached_property
    def _copies(self) -> tuple[dict[tuple, tuple[Interval, float, float]], ...]:
        """Per chart, each cell of the base that it holds, mapped to the cell's
        chart coordinates, the rate at which they move with the stratum's (0
        at a vertex) and the chart coordinate of the cell's point.  The cells
        are the vertices, the points where a span or a closed stratum ends,
        and the open runs between consecutive ends, keyed (point, None) or
        (midpoint, (a, b)); a chart holds each cell whole or not at all.  A
        run's interval stops TOL short of its ends, whose bands are theirs."""
        out = tuple({} for _ in self.charts)
        cells = [((v,), None) for v in self.base_space.vertices]
        for name, lo, hi, lo_closed, hi_closed in self.base_space.strata:
            ends = sorted({lo, hi}.union(*[(p.lo, p.hi) for cc in self.charts for p in cc.pieces
                                           if getattr(p, "stratum", None) == name]))
            cells += [((name, e), None) for e in ends if (lo_closed or e > lo) and (hi_closed or e < hi)]
            cells += [((name, (a + b) / 2), (a, b)) for a, b in zip(ends, ends[1:])]
        for x, run in cells:
            for copies, cc in zip(out, self.charts):
                if found := cc.locate(x):
                    s, rate = found
                    at = [(cc.locate((x[0], e)) or (s + rate * (e - x[1]),))[0] for e in run or ()]
                    iv = Interval(min(at) + TOL, max(at) - TOL, False, False) if run else Interval(s, s)
                    copies[x, run] = (iv, rate, s)
            if not any((x, run) in copies for copies in out):
                raise CoverageError(f"base point {x!r} is not covered by any chart")
        return out

    @functools.cached_property  # per chart, its cells' sorted bounds, each with the cell's point or None
    def _bounds(self) -> tuple[list[tuple], ...]:
        return tuple(sorted(iv.bounds + (None if run else s,) for (_, run), (iv, _, s) in copies.items())
                     for copies in self._copies)

    def normalize(self, y: PointRef) -> PointRef:
        """y, or the point of its cell (a vertex, a span end or a closed
        stratum end) if y lies in that point's TOL band."""
        if not (0 <= y.chart < len(self.charts)) or len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for cover model")
        bounds = self._bounds[y.chart]  # the one interval that may hold y starts last at or below it
        i = bisect.bisect_right(bounds, (y.coord[0], math.inf)) - 1
        if i < 0 or not y.coord[0] < bounds[i][1]:
            raise DomainError(f"coordinate {y.coord[0]} outside cover chart")
        return y if bounds[i][2] is None else PointRef(y.chart, bounds[i][2:])

    def transitions(self, chart: int) -> tuple[AffineMap, ...]:
        """Per cell that ``chart`` holds, the maps s -> +-s + shift from its
        copy there onto its copy in each other chart."""
        return tuple(AffineMap(chart, (iv,), k, (rate * r,), (t - rate * r * s,))
                     for cell, (iv, rate, s) in self._copies[chart].items()
                     for k, copies in enumerate(self._copies) if k != chart and cell in copies
                     for _, r, t in [copies[cell]])

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        per = max(n // max(len(self.base_space.strata), 1), 8)
        return [y for y in map(self._lift, self.base_space.grid(per)) if y is not None]


# A chart cover is construction: ``build_cover_groupoid(base, charts)``.
build_cover_groupoid = CoverModel


def aab_ab_figure_cover() -> CoverModel:
    """The five-chart cover of the split-wedge base: one open neighborhood
    through each of ab, ba, aa plus one mid-arc chart per edge."""
    n_ab = CoverChart(
        pieces=(Span("b", 0.5, 1.0), VertexPiece("ab"), Span("a", 0.0, 0.5))
    )
    n_ba = CoverChart(
        pieces=(Span("a", 0.5, 1.0), VertexPiece("ba"), Span("b", 0.0, 0.5))
    )
    n_aa = CoverChart(
        pieces=(Span("a", 0.5, 1.0), VertexPiece("aa"), Span("a", 0.0, 0.5))
    )
    a_mid = CoverChart(pieces=(Span("a", 0.1, 0.9),))
    b_mid = CoverChart(pieces=(Span("b", 0.1, 0.9),))
    return CoverModel("aab_ab", (n_ab, n_ba, n_aa, a_mid, b_mid))


_MODEL_CLASSES = {
    cls.kind: cls
    for cls in (SolenoidAabAb, BrokenHeart, TwistedSphere, PinchCircle, WedgeModel, CoverModel)
}


def model_from_dict(d: dict) -> SpaceModel:
    """Build a model from the form its ``to_dict`` writes: ``kind`` selects
    the class, whose constructor fields ``read_json`` reads."""
    d = json_object(d, "a model")
    kind = d.get("kind")
    cls = _MODEL_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParameterError(f"unknown model kind {kind!r}")
    return read_json(cls, d, f"a {kind} model")
