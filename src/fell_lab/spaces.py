"""Combinatorial models of surjective local homeomorphisms onto compact
locally Hausdorff spaces.

A model describes a total space Y as a finite list of charts (intervals,
circles, sphere patches), the fibers of the projection down to the base X,
and the finite classes of base points that cannot be separated by open sets
(the branch classes).  Everything downstream consumes this surface:

* ``resolve_orbit`` returns the full fiber through a point in a canonical
  order (ascending chart id, then lexicographic coordinate), so that fiber
  matrices have deterministic indexing;
* ``wedge`` glues two models at points with singleton fibers that are not
  branch points, the condition under which the glued projection is again a
  local homeomorphism;
* ``build_cover_groupoid`` turns a chart cover of a named base space into
  the model whose fiber over x consists of the copies of x in each covering
  chart, and checks that the charts cover the base;
* ``approach_sequences`` walks into a branch class along each approach
  direction the class carries, one geometric sample sequence per direction,
  for continuity checks;
* ``sample_base_points`` draws per-chart quasi-uniform grids and always
  includes the distinguished strata (branch points, poles, split points).

Point identity is float-based.  Coordinates are compared after quantizing
at 1e-9 (the membership tolerance for angles reduced modulo a period), so
re-resolving an orbit from any of its members yields an equal orbit even
though e.g. ``(theta + pi) - pi != theta`` in IEEE arithmetic.  Models are
immutable and every function here is pure.

Every model is a record whose constructor fields are its file form:
``read_json`` reads a value of a declared type from JSON, coercing nothing,
and ``write_json`` writes the JSON value that reads back.  A model checks
itself when it is constructed, from a file or in code.

Cover models built from generic chart data carry no approach-direction
information, so they expose branch classes but no approach sequences.
"""

from __future__ import annotations

import functools
import inspect
import math
import random
import types
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, ClassVar, NamedTuple, Union, get_args, get_origin, get_type_hints

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
    return (p.chart, tuple(round(c * _QSCALE) for c in p.coord))


def _snap(x: float, targets: tuple[float, ...], tol: float = TOL) -> float | None:
    for tgt in targets:
        if abs(x - tgt) <= tol:
            return tgt
    return None


def _reduce_angle(theta: float, period: float) -> float:
    """Reduce to [0, period), collapsing the tolerance band at the seam."""
    theta = theta % period
    if theta >= period - TOL or theta <= TOL:
        return 0.0
    return theta


@dataclass(frozen=True)
class BranchClass:
    """A finite set of mutually non-separated base points, by point name,
    with the directions into it as (direction name, distance -> sample)
    pairs."""

    name: str
    members: tuple[str, ...]
    directions: tuple[tuple[str, Callable[[float], PointRef]], ...] = field(
        default=(), compare=False
    )


@dataclass(frozen=True)
class Orbit:
    """A full fiber in canonical order; the index set of fiber matrices.

    ``keys`` holds the ``qkey`` of each member, in the same order; orbits
    compare and hash by their keys alone.
    """

    members: tuple[PointRef, ...] = field(compare=False)
    keys: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("orbit must be nonempty")
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("orbit has duplicate members")

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


# ---------------------------------------------------------------------------
# Model base class
# ---------------------------------------------------------------------------


class SpaceModel:
    """Shared surface of all models; subclasses fill in the geometry."""

    kind: ClassVar[str]  # the file-format name, declared once per model class

    @property
    def periods(self) -> tuple[float | None, ...]:
        """Per chart, the period of its angular axis-0 coordinate (None if
        linear); other axes are always linear."""
        raise NotImplementedError

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        raise NotImplementedError

    def normalize(self, y: PointRef) -> PointRef:
        """Validate a point and reduce its coordinates to canonical range."""
        raise NotImplementedError

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        """Members of the fiber through a normalized point, any order."""
        raise NotImplementedError

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
        """Whether the normalized point y is a member of a branch class."""
        return qkey(y) in {
            qkey(self.named_point(m)) for c in self.branch_classes for m in c.members
        }

    def branch_partner_pairs(self) -> list[tuple[PointRef, PointRef]]:
        """Representative pairs of mutually non-separated base points."""
        pairs = []
        for c in self.branch_classes:
            pts = [self.named_point(m) for m in c.members]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    pairs.append((pts[i], pts[j]))
        return pairs

    def to_dict(self) -> dict:
        """The form ``model_from_dict`` reads: ``kind`` plus each constructor field."""
        return write_json(self)


def resolve_orbit(model: SpaceModel, y: PointRef) -> Orbit:
    """The full fiber through y in canonical order.

    Canonical order is ascending chart id, then lexicographic coordinates
    (after 1e-9 quantization); resolving again from any member returns an
    equal orbit.
    """
    keyed = sorted((qkey(m), m) for m in model.orbit_members(model.normalize(y)))
    return Orbit(tuple(m for _, m in keyed), tuple(k for k, _ in keyed))


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


# ---------------------------------------------------------------------------
# Two-circle splice model (circle covering a wedge of two circles whose
# wedge point is split into three non-separated points ab, ba, aa)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolenoidAabAb(SpaceModel):
    """Circle mapping onto two circles joined across a split triple point.

    The covering circle has period 3 with marked points at 0 (ab), 1 (aa)
    and 2 (ba).  The arcs (0,1) and (1,2) both map onto the first circle of
    the base ("edge a", doubly covered), the arc (2,3) maps onto the second
    ("edge b", singly covered), and the marks map to the three pairwise
    non-separated base points.
    """

    kind: ClassVar[str] = "solenoid_aab_ab"
    MARKS: ClassVar[tuple[float, ...]] = (0.0, 1.0, 2.0)

    @property
    def periods(self) -> tuple[float | None, ...]:
        return (3.0,)

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
        theta = y.coord[0] % 3.0
        snapped = _snap(theta, self.MARKS + (3.0,))
        if snapped is not None:
            theta = snapped % 3.0
        return PointRef(0, (theta,))

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        theta = y.coord[0]
        if theta in self.MARKS:
            return [y]
        if theta < 1.0:
            return [y, PointRef(0, (theta + 1.0,))]
        if theta < 2.0:
            return [PointRef(0, (theta - 1.0,)), y]
        return [y]

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        pts = []
        for theta in _jittered_grid(max(n, 3), 0.0, 3.0, rng):
            if min(abs(theta - m) for m in self.MARKS + (3.0,)) < 1e-6:
                continue
            pts.append(PointRef(0, (theta,)))
        pts.extend(self.named_points()[k] for k in ("ab", "aa", "ba"))
        return pts


# ---------------------------------------------------------------------------
# Broken heart (three identified open segments; top split into two
# non-separated points q, r)
# ---------------------------------------------------------------------------


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

    @property
    def periods(self) -> tuple[float | None, ...]:
        return (None, None, None)

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

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        c = y.coord[0]
        if y.chart == 0:
            if c == 0.0:
                return [y]
            return [y, PointRef(1, (3.0 - c,)), PointRef(2, (3.0 - c,))]
        if c <= 1.0:
            return [y]
        h = 3.0 - c
        return [PointRef(0, (h,)), PointRef(1, (c,)), PointRef(2, (c,))]

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


# ---------------------------------------------------------------------------
# Twisted sphere (quotient of the sphere by the half-turn off the equator)
# ---------------------------------------------------------------------------


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
    equator_theta: float = 0.3

    @property
    def periods(self) -> tuple[float | None, ...]:
        return (TWO_PI, TWO_PI, TWO_PI)

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
        theta = _reduce_angle(theta, TWO_PI)
        if abs(theta - math.pi) <= TOL:
            theta = math.pi
        if abs(z) <= TOL:
            z = 0.0
        if y.chart == 0:
            if not (-1.0 < z < 1.0):
                raise DomainError("poles are not in the twice-covering patch")
            return PointRef(0, (theta, z))
        if y.chart in (1, 2):
            if abs(abs(z) - 1.0) <= TOL:
                return PointRef(y.chart, (0.0, math.copysign(1.0, z)))
            if z == 0.0 or not (-1.0 < z < 1.0):
                raise DomainError(
                    "equator is not in the once-covering patches"
                )
            return PointRef(y.chart, (theta, z))
        raise DomainError(f"unknown chart {y.chart} for {self.kind}")

    def orbit_members(self, y: PointRef) -> list[PointRef]:
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

    def is_branch_point(self, y: PointRef) -> bool:
        """The whole equator is the branch locus, not only the listed pair."""
        return y.chart == 0 and y.coord[1] == 0.0

    def branch_partner_pairs(self) -> list[tuple[PointRef, PointRef]]:
        pairs = super().branch_partner_pairs()
        for i in range(48):
            theta = i * math.pi / 48.0
            pairs.append(
                (PointRef(0, (theta, 0.0)), PointRef(0, (theta + math.pi, 0.0)))
            )
        return pairs


# ---------------------------------------------------------------------------
# Pinch model (k-sheeted circle cover with a finite split set)
# ---------------------------------------------------------------------------


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
    def periods(self) -> tuple[float | None, ...]:
        return (1.0,) * self.sheets

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
        out = {}
        for idx, a in enumerate(self.split_points):
            for i in range(self.sheets):
                out[f"split:{idx}:{i}"] = PointRef(i, (a,))
        return out

    def normalize(self, y: PointRef) -> PointRef:
        if not (0 <= y.chart < self.sheets) or len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for {self.kind}")
        t = y.coord[0] % 1.0
        snapped = _snap(t, self.split_points + (1.0,))
        if snapped is not None:
            t = snapped % 1.0
        return PointRef(y.chart, (t,))

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        t = y.coord[0]
        if t in self.split_points:
            return [y]
        return [PointRef(i, (t,)) for i in range(self.sheets)]

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        rng = random.Random(seed)
        pts = []
        for t in _jittered_grid(max(n, 4), 0.0, 1.0, rng):
            if any(abs(t - a) < 1e-6 for a in self.split_points):
                continue
            pts.append(PointRef(0, (t,)))
        pts.extend(self.named_points().values())
        return pts


# ---------------------------------------------------------------------------
# Wedge of two models
# ---------------------------------------------------------------------------


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
        return len(self.left.periods)

    @functools.cached_property  # read on every orbit through either factor
    def glue_keys(self) -> tuple[tuple, tuple]:
        return qkey(self.left_point), qkey(self.right_point)

    @property
    def periods(self) -> tuple[float | None, ...]:
        return self.left.periods + self.right.periods

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

    def _shift(self, y: PointRef) -> PointRef:
        return PointRef(y.chart + self.offset, y.coord)

    def _unshift(self, y: PointRef) -> PointRef:
        return PointRef(y.chart - self.offset, y.coord)

    def from_factor(self, side: str, y: PointRef) -> PointRef:
        """The wedge's point for the point y of its ``side`` factor ("left" or "right")."""
        return self._shift(y) if side == "right" else y

    def named_points(self) -> dict[str, PointRef]:
        out = {"wedge_point": self.left_point}
        for side, factor in (("left", self.left), ("right", self.right)):
            for name, p in factor.named_points().items():
                out[f"{side}:{name}"] = self.from_factor(side, p)
        return out

    def normalize(self, y: PointRef) -> PointRef:
        if y.chart < 0:
            raise DomainError(f"invalid chart {y.chart}")
        if y.chart < self.offset:
            return self.left.normalize(y)
        return self._shift(self.right.normalize(self._unshift(y)))

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        if y.chart < self.offset:
            local = self.left.orbit_members(y)
            if self.glue_keys[0] in [qkey(m) for m in local]:
                return [self.left_point]
            return local
        local = self.right.orbit_members(self._unshift(y))
        if self.glue_keys[1] in [qkey(m) for m in local]:
            return [self.left_point]
        return [self._shift(m) for m in local]

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        half = max(n // 2, 2)
        pts = list(self.left.sample_points(half, seed))
        pts.extend(self._shift(p) for p in self.right.sample_points(half, seed + 1))
        pts.append(self.left_point)
        return pts


# Gluing is construction: ``wedge(left, right, left_point, right_point)``.
wedge = WedgeModel


# ---------------------------------------------------------------------------
# Cover models (disjoint union of charts over a described base space)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A linear run of a cover chart across one base stratum."""

    stratum: str
    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False
    reverse: bool = False

    def __post_init__(self) -> None:
        if not (self.hi > self.lo):
            raise ValueError("span needs hi > lo")

    @property
    def length(self) -> float:
        return self.hi - self.lo

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

    @functools.cached_property  # read on every local_of and base_of call
    def _offsets(self) -> tuple[float, ...]:
        out = []
        pos = 0.0
        for piece in self.pieces:
            out.append(pos)
            if isinstance(piece, Span):
                pos += piece.length
        return tuple(out)

    def local_of(self, point: tuple) -> float | None:
        """Chart coordinate of a base point, or None if not in the chart."""
        for piece, off in zip(self.pieces, self._offsets):
            if isinstance(piece, VertexPiece):
                if point == (piece.vertex,):
                    return off
            else:
                if len(point) == 2 and point[0] == piece.stratum and piece.contains(point[1]):
                    t = point[1]
                    return off + ((piece.hi - t) if piece.reverse else (t - piece.lo))
        return None

    def base_of(self, s: float) -> tuple:
        """Base point at a chart coordinate."""
        for piece, off in zip(self.pieces, self._offsets):
            if isinstance(piece, VertexPiece):
                if abs(s - off) <= TOL:
                    return (piece.vertex,)
            else:
                if off - TOL <= s <= off + piece.length + TOL:
                    local = min(max(s - off, 0.0), piece.length)
                    t = (piece.hi - local) if piece.reverse else (piece.lo + local)
                    if piece.contains(t):
                        return (piece.stratum, t)
        raise DomainError(f"coordinate {s} outside cover chart")


@dataclass(frozen=True)
class BaseSpace:
    """A described base: named one-dimensional strata plus named vertices."""

    strata: tuple[tuple[str, float, float, bool, bool], ...]
    vertices: tuple[str, ...]
    branch: tuple[BranchClass, ...] = ()

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
# Hausdorff), and two open edges a, b plus the split triple point ab/ba/aa.
_BASES = {
    "interval": BaseSpace(strata=(("x", 0.0, 1.0, True, True),), vertices=()),
    "aab_ab": BaseSpace(
        strata=(("a", 0.0, 1.0, False, False), ("b", 0.0, 1.0, False, False)),
        vertices=("ab", "ba", "aa"),
        branch=(BranchClass("wedge", ("ab", "ba", "aa")),),
    ),
}

# Points per stratum of the grid on which a chart cover's coverage is checked.
COVER_CHECK_GRID = 128


@dataclass(frozen=True)
class CoverModel(SpaceModel):
    """Model of the identity-on-charts projection from a chart cover of a base.

    The fiber over a base point is the set of its copies across all charts
    containing it.  Construction looks the base up by name (``"interval"``
    or ``"aab_ab"``), raising ``ParameterError`` for any other, and checks
    coverage on a grid of ``COVER_CHECK_GRID`` points per stratum: an
    uncovered point raises ``CoverageError``.  Hausdorffness of the
    individual charts is a precondition on the caller.
    """

    kind: ClassVar[str] = "cover"
    base: str
    charts: tuple[CoverChart, ...]

    def __post_init__(self) -> None:
        if self.base not in _BASES:
            raise ParameterError(f"unknown base space {self.base!r}")
        object.__setattr__(self, "charts", tuple(self.charts))
        for x in self.base_space.grid(COVER_CHECK_GRID):
            if all(cc.local_of(x) is None for cc in self.charts):
                raise CoverageError(f"base point {x!r} is not covered by any chart")

    @property
    def base_space(self) -> BaseSpace:
        return _BASES[self.base]

    @property
    def periods(self) -> tuple[float | None, ...]:
        return (None,) * len(self.charts)

    @property
    def branch_classes(self) -> tuple[BranchClass, ...]:
        return self.base_space.branch

    def named_points(self) -> dict[str, PointRef]:
        out = {}
        for v in self.base_space.vertices:
            for j, cc in enumerate(self.charts):
                s = cc.local_of((v,))
                if s is not None:
                    out[v] = PointRef(j, (s,))
                    break
        return out

    def normalize(self, y: PointRef) -> PointRef:
        if not (0 <= y.chart < len(self.charts)) or len(y.coord) != 1:
            raise DomainError(f"invalid point {y!r} for cover model")
        self.charts[y.chart].base_of(y.coord[0])  # raises if outside
        return y

    def orbit_members(self, y: PointRef) -> list[PointRef]:
        x = self.charts[y.chart].base_of(y.coord[0])
        members = []
        for j, cc in enumerate(self.charts):
            s = cc.local_of(x)
            if s is not None:
                members.append(PointRef(j, (s,)))
        return members

    def sample_points(self, n: int, seed: int = 0) -> list[PointRef]:
        per = max(n // max(len(self.base_space.strata), 1), 8)
        pts = []
        for x in self.base_space.grid(per):
            for j, cc in enumerate(self.charts):
                s = cc.local_of(x)
                if s is not None:
                    pts.append(PointRef(j, (s,)))
                    break
        return pts


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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


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
