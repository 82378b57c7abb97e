"""Convolution-algebra elements as fiber-indexed matrices, with verifiers.

An element assigns to each base point a complex square matrix indexed by the
fiber through that point in its canonical order.  Convolution over an
equivalence-relation groupoid restricted to a single fiber is exactly matrix
multiplication,

    (f * g)(y1, y2) = sum over z in the fiber of f(y1, z) g(z, y2),

so a ``product`` multiplies fiber matrices, ``adjoint`` conjugate-transposes
them, and the projection/fullness checks reduce to small dense linear
algebra (operator norms are largest singular values of matrices of size at
most four).

Verification is sampling-based: identities are checked exactly or to 1e-12
on finite sample sets, limits across branch classes to 1e-6 after
extrapolating geometric approach sequences (iterated Aitken acceleration,
which is exact for the geometrically decaying entry profiles produced by the
shipped elements).  Fullness is reported as a numerical witness - the
minimum over samples of the largest entry magnitude - never as a proof.
Only a region is checked exactly, against the maps its model declares.

Branch-continuity defects compare the block of the fiber matrix spanned by
members that converge to lifts of the target class against the element's
value at those branch points.  A member's limit is its last two positions
extrapolated to distance 0 and identified as points are everywhere, by
``normalize`` and ``qkey``.  Members that leave the total space along the
sequence carry no constraint at the branch point and are excluded; this is
what makes the constant-diagonal identity element continuous even on models
with noncompact total space.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import spaces
from .spaces import (
    AffineMap,
    ApproachSequence,
    Interval,
    Orbit,
    OrbitBlock,
    PointRef,
    SpaceModel,
    TwistedSphere,
    WedgeModel,
    qkey,
    resolve_orbit,  # still importable from here, as before
    resolve_orbits,
)

ALGEBRA_TOL = 1e-12
CONTINUITY_TOL = 1e-6


class IncompatibilityError(ValueError):
    """Operands live over different models."""


class MissingSampleError(KeyError):
    """A grid element has no value stored at the requested base point."""


class NonHausdorffRegionError(ValueError):
    """A region contains two mutually non-separated base points."""


class RegionSectionError(ValueError):
    """A region meets some fiber in more than one point."""


class InvarianceError(ValueError):
    """A restriction target is not closed and groupoid-invariant."""


@dataclass(frozen=True, eq=False)
class FiberMatrix:
    """A complex square matrix indexed by one fiber's canonical order."""

    orbit: Orbit
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (self.orbit.size, self.orbit.size):
            raise ValueError(
                f"entries shape {arr.shape} does not match fiber size {self.orbit.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.orbit.size

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))


@dataclass(frozen=True)
class RegionPiece:
    chart: int
    box: tuple[Interval, ...]

    def contains(self, y: PointRef) -> bool:
        return (y.chart == self.chart and len(self.box) == len(y.coord)
                and all(iv.contains(c) for iv, c in zip(self.box, y.coord)))


@dataclass(frozen=True)
class Region:
    """Per-chart coordinate boxes selecting a section of a compact open
    Hausdorff subset of the base."""

    pieces: tuple[RegionPiece, ...] = ()


@dataclass(frozen=True)
class ScalarRule:
    """c times the identity on every fiber."""

    c: float


@dataclass(frozen=True)
class SphereProjectionRule:
    """The twisted-sphere projection, first diagonal entry shifted by a constant."""

    perturb_first_diag: float


@dataclass(frozen=True, eq=False)
class GridRule:
    values: dict[tuple, np.ndarray]  # base label -> matrix
    points: tuple[PointRef, ...]  # the given base points, one per value, in order
    stacks: tuple = field(default=(), compare=False)  # per VERIFY_CHUNK of points, (block, stack)s

    def lookup(self, label: tuple) -> np.ndarray:
        try:
            return self.values[label]
        except KeyError:
            raise MissingSampleError(f"no stored value at base point {label!r}") from None


@dataclass(frozen=True)
class IndicatorRule:
    region: Region


@dataclass(frozen=True)
class AdjointRule:
    inner: "AlgebraElement"


@dataclass(frozen=True)
class SumRule:
    left: "AlgebraElement"
    right: "AlgebraElement"


@dataclass(frozen=True)
class ProductRule:
    left: "AlgebraElement"
    right: "AlgebraElement"


@dataclass(frozen=True)
class RestrictRule:
    inner: "AlgebraElement"
    side: str  # "left" | "right"


Rule = (ScalarRule | SphereProjectionRule | GridRule | IndicatorRule | AdjointRule | SumRule
        | ProductRule | RestrictRule)


@dataclass(frozen=True)
class AlgebraElement:
    """An element of the convolution algebra at sample resolution."""

    model: SpaceModel
    rule: Rule


def identity_element(model: SpaceModel) -> AlgebraElement:
    return AlgebraElement(model, ScalarRule(1.0))


def zero_element(model: SpaceModel) -> AlgebraElement:
    return AlgebraElement(model, ScalarRule(0.0))


def twisted_sphere_projection(model: SpaceModel, perturb_first_diag: float = 0.0) -> AlgebraElement:
    """The full projection over the twisted sphere.

    Diagonal weight 1-|z| on the twice-covering members and |z| on the
    once-covering members, coupling sqrt(|z|(1-|z|)/2) between them, with a
    unit phase e^{-i theta} against the second once-covering copy.  The
    phases of the two twice-covering members differ by pi, which is what
    makes the off-diagonal convolution terms cancel.
    """
    if not isinstance(model, TwistedSphere):
        raise IncompatibilityError(
            "twisted_sphere_projection is defined over the twisted sphere model"
        )
    return AlgebraElement(model, SphereProjectionRule(perturb_first_diag))


# The ``builtin`` element names of the file format.  Each constructor's
# keyword parameters are exactly the ``params`` that its name reads.
BUILTINS: dict[str, Callable[..., AlgebraElement]] = {
    "identity": identity_element,
    "zero": zero_element,
    "twisted_sphere_projection": twisted_sphere_projection,
}

# The keys of an element object, per rule; ``params`` may be left out.
ELEMENT_KEYS = {
    "builtin": ("rule", "name", "params"),
    "indicator": ("rule", "region"),
    "grid": ("rule", "points"),
}


class GridPoint(NamedTuple):
    """One stored value of a ``grid`` element: a point plus its fiber matrix,
    each complex entry an ``[re, im]`` pair in the file."""

    chart: int
    coord: tuple[float, ...]
    matrix: tuple[tuple[complex, ...], ...]


def element_from_dict(model: SpaceModel, d: dict) -> AlgebraElement:
    """Read the element of a ``verify`` file over its model.

    The object may hold only its rule's keys (``ELEMENT_KEYS``), and a
    ``region`` and grid points are read by ``spaces.read_json``; any other
    key raises ``ParameterError``.  A ``builtin`` accepts only the
    parameters its constructor declares.
    """
    d = spaces.json_object(d, "an element")
    rule = d.get("rule")
    if not isinstance(rule, str) or rule not in ELEMENT_KEYS:
        raise ValueError(f"unknown element rule {rule!r}")
    d = spaces.json_keys(d, ELEMENT_KEYS[rule], f"a {rule} element", optional=("params",))
    if rule == "builtin":
        name = d["name"]
        if not isinstance(name, str) or name not in BUILTINS:
            raise ValueError(f"unknown builtin element {name!r}")
        params = spaces.json_object(d.get("params", {}), "builtin params")
        declared = tuple(inspect.signature(BUILTINS[name]).parameters)[1:]  # after the model
        for key in params:
            if key not in declared:
                raise spaces.ParameterError(
                    f"builtin {name!r} has no parameter {key!r}; "
                    f"it reads {', '.join(declared) or 'none'}"
                )
        kwargs = {k: spaces.finite_float(v, f"param {k!r}") for k, v in params.items()}
        return BUILTINS[name](model, **kwargs)
    if rule == "indicator":
        return indicator_projection(model, spaces.read_json(Region, d["region"], "a region"))
    # In step with grid_element's chunks: chunk i is read after chunk i - 1 is resolved.
    points = spaces.json_array(d["points"], "points")
    chunks = (_read_points(points[i:i + VERIFY_CHUNK]) for i in range(0, len(points), VERIFY_CHUNK))
    return grid_element(model, itertools.chain.from_iterable(chunks))


def _read_points(chunk: list) -> list[tuple[PointRef, np.ndarray]]:
    """``read_json(GridPoint, p, "points[]")`` of each point, with the chunk
    checked as a whole and the matrices of each length k read as one array.
    A chunk that fails the check is read point by point by ``read_json``."""
    keys = set(GridPoint._fields)
    try:
        if all(type(p) is dict and p.keys() == keys for p in chunk):
            charts, coords, mats = ([p[key] for p in chunk] for key in GridPoint._fields)
            rows, xs = list(itertools.chain(*mats)), list(itertools.chain(*coords))
            pairs = list(itertools.chain(*rows))
            if (set(map(type, charts)) == {int} and set(map(type, itertools.chain(xs, *pairs))) <= {int, float}
                    and set(map(type, itertools.chain(coords, mats, rows, pairs))) <= {list}
                    and all(map(math.isfinite, xs))):
                by_k = {k: np.array([m for m in mats if len(m) == k], dtype=float) for k in set(map(len, mats))}
                if all(a.shape[1:] == (k, k, 2) and np.isfinite(a).all() for k, a in by_k.items()):
                    by_k = {k: iter(a.view(complex)[..., 0]) for k, a in by_k.items()}
                    return [(PointRef(c, tuple(map(float, x))), next(by_k[len(m)]))
                            for c, x, m in zip(charts, coords, mats)]
    except (TypeError, ValueError, OverflowError):  # not an array, ragged, or an int past the float range
        pass
    return [(PointRef(p.chart, p.coord), p.matrix)
            for p in (spaces.read_json(GridPoint, p, "points[]") for p in chunk)]


def grid_element(
    model: SpaceModel,
    values: Mapping[PointRef, np.ndarray] | Iterable[tuple[PointRef, np.ndarray]],
) -> AlgebraElement:
    """Element given by explicit fiber matrices at one or more base points.

    Each ``VERIFY_CHUNK`` of values is resolved once and checked as one stack per
    block, or point by point for its first fault in input order if it has one."""
    items = iter(values.items() if isinstance(values, Mapping) else values)
    stored, points, stacks = {}, [], []
    while chunk := list(itertools.islice(items, VERIFY_CHUNK)):
        blocks = resolve_orbits(model, [x for x, _ in chunk])
        try:
            kept = [(b, np.array([chunk[r][1] for r in b.rows.tolist()], dtype=complex)) for b in blocks]
        except (TypeError, ValueError):  # a ragged matrix or an entry that is no number
            kept = []
        new = {label: mat for b, a in kept if a.shape[1:] == (b.size, b.size) and np.isfinite(a).all()
               for label, mat in zip(b.labels(), a)}
        if len(new) == len(chunk) and new.keys().isdisjoint(stored):
            stored.update(new)
        else:
            fibers = sorted((row, label, block.size) for block in blocks
                            for row, label in zip(block.rows.tolist(), block.labels()))
            for (_, label, size), (_, arr) in zip(fibers, chunk):
                if label in stored:
                    raise ValueError(f"duplicate grid value at base point {label!r}")
                mat = np.asarray(arr, dtype=complex)
                if mat.shape != (size, size):
                    raise ValueError(f"matrix shape {mat.shape} does not match fiber size {size}")
                if not np.isfinite(mat).all():
                    raise ValueError(f"grid value at base point {label!r} is not finite")
                stored[label] = mat
            kept = [(b, np.stack([stored[label] for label in b.labels()])) for b in blocks]
        points += [x for x, _ in chunk]
        stacks += kept
    if not points:
        raise ValueError("a grid element needs at least one point")
    return AlgebraElement(model, GridRule(values=stored, points=tuple(points), stacks=tuple(stacks)))


def adjoint(f: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(f.model, AdjointRule(f))


def add(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    _check_same_model(f, g)
    return AlgebraElement(f.model, SumRule(f, g))


def product(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """The convolution product as a lazy element."""
    _check_same_model(f, g)
    return AlgebraElement(f.model, ProductRule(f, g))


def _check_same_model(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.model != g.model:
        raise IncompatibilityError("elements live over different models")


def _sphere_projection_entries(block: OrbitBlock, perturb: float) -> np.ndarray:
    m, k = block.charts.shape
    z = np.abs(block.coords[:, 0, 1])
    mat = np.zeros((m, k, k), dtype=complex)
    mat[:, range(k), range(k)] = np.stack({1: [1.0 - z], 2: [z, z], 4: [1.0 - z, 1.0 - z, z, z]}[k], axis=1)
    if k == 4:
        c = np.sqrt(0.5 * z * (1.0 - z))
        for i in (0, 1):
            mat[:, i, 2] = mat[:, 2, i] = c
            phase = np.exp(-1j * block.coords[:, i, 0])
            mat[:, i, 3], mat[:, 3, i] = phase * c, np.conj(phase) * c
    if perturb:
        mat[:, 0, 0] += perturb
    return mat


def fiber_stacks(f: AlgebraElement, points: list[PointRef]) -> list[tuple[OrbitBlock, np.ndarray]]:
    """The fibers through points, one block per size (``resolve_orbits``),
    each with its ``(m, k, k)`` stack of the element's fiber matrices."""
    return [(block, _entries_at(f, block)) for block in resolve_orbits(f.model, points)]


def evaluate(f: AlgebraElement, x: PointRef) -> FiberMatrix:
    """The fiber matrix of an element at a base point (given by any lift)."""
    ((block, entries),) = fiber_stacks(f, [x])
    return FiberMatrix(block.orbit(0), entries[0])


def _entries_at(f: AlgebraElement, block: OrbitBlock) -> np.ndarray:
    """The ``(m, k, k)`` stack of the element's matrices over a block's fibers."""
    rule = f.rule
    m, k, d = block.coords.shape
    if isinstance(rule, SphereProjectionRule):
        return _sphere_projection_entries(block, rule.perturb_first_diag)
    if isinstance(rule, ScalarRule):
        return np.repeat((rule.c * np.eye(k, dtype=complex))[None], m, axis=0)
    if isinstance(rule, GridRule):
        return np.stack([rule.lookup(label) for label in block.labels()])
    if isinstance(rule, IndicatorRule):
        inside, x = np.zeros((m, k), dtype=bool), block.coords
        for piece in rule.region.pieces:
            if len(piece.box) == d:
                lo, hi = np.array([iv.bounds for iv in piece.box]).T
                inside |= (block.charts == piece.chart) & ((lo <= x) & (x < hi)).all(axis=2)
        return inside[..., None] * np.eye(k, dtype=complex)
    if isinstance(rule, AdjointRule):
        return _entries_at(rule.inner, block).conj().transpose(0, 2, 1)
    if isinstance(rule, SumRule):
        return _entries_at(rule.left, block) + _entries_at(rule.right, block)
    if isinstance(rule, ProductRule):
        return _entries_at(rule.left, block) @ _entries_at(rule.right, block)
    if isinstance(rule, RestrictRule):
        lifts = [rule.inner.model.from_factor(rule.side, PointRef(c, tuple(x)))
                 for c, x in zip(block.charts[:, 0].tolist(), block.coords[:, 0].tolist())]
        big = fiber_stacks(rule.inner, lifts)
        if len(big) != 1 or big[0][0].size != k:
            raise IncompatibilityError("restricted fiber size mismatch")
        return big[0][1]
    raise TypeError(f"unknown rule {rule!r}")


def indicator_projection(model: SpaceModel, region: Region) -> AlgebraElement:
    """The diagonal indicator of a section over a compact open Hausdorff set.

    The region is checked exactly: for every pair of its boxes A and B (A = B
    included), m(A ∩ dom m) ∩ B must be empty for each partner map m out of
    A's chart, else ``NonHausdorffRegionError``, and for each transition m,
    else ``RegionSectionError``.  The maps reach every lift of a point.  The
    element's diagonal entries are 0 or 1, so it is an exact projection.
    A box that holds no normalized point of its chart raises
    ``ParameterError``.
    """
    for i, a in enumerate(region.pieces):
        own = AffineMap(a.chart, a.box, a.chart, (1.0,) * len(a.box), (0.0,) * len(a.box))
        if _meeting(model, own, a, a) is None:
            raise spaces.ParameterError(f"region piece {i} on chart {a.chart} holds no point of the model")
    checks = ((model.partners, NonHausdorffRegionError, "two non-separated points"),
              (model.transitions, RegionSectionError, "two members of one fiber"))
    for maps_of, error, what in checks:
        for a in region.pieces:
            for m in maps_of(a.chart):
                for b in region.pieces:
                    y = _meeting(model, m, a, b)
                    if y is not None:
                        raise error(f"region holds {what}, {y!r} and {m(y)!r}")
    return AlgebraElement(model, IndicatorRule(region))


def _meeting(model: SpaceModel, m: AffineMap, a: RegionPiece, b: RegionPiece) -> PointRef | None:
    """A normalized point of a in the domain of m whose image lies in b, if any.

    Per axis, a ∩ dom m ∩ m⁻¹(b) is one interval of floats.  It may hold a
    TOL band that ``normalize`` snaps onto an open end of the domain, and so
    no normalized point; such a band lies at an end of the interval.  So the
    centre, lowest and highest points are normalized, in every combination
    across axes, and the first that keeps the three memberships is returned.
    """
    if b.chart != m.target or not len(a.box) == len(b.box) == len(m.domain):
        return None
    axes = []
    for ia, idom, ib, scale, shift in zip(a.box, m.domain, b.box, m.scale, m.shift):
        lo, hi = max(ia.bounds[0], idom.bounds[0]), min(ia.bounds[1], idom.bounds[1])
        if scale:
            pre = sorted((e - shift) / scale for e in ib.bounds)
            lo, hi = max(lo, pre[0]), min(hi, pre[1])
        elif not ib.contains(shift):
            return None
        if lo >= hi:
            return None
        axes.append(((lo + hi) / 2, lo, math.nextafter(hi, -math.inf)))
    for coord in itertools.product(*axes):
        y = model.try_normalize(PointRef(m.source, coord))
        if y is not None and a.contains(y) and m.covers(y) and b.contains(m(y)):
            return y
    return None


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class VerificationReport:
    max_idempotency_defect: float
    max_selfadjoint_defect: float
    fullness_floor: float
    continuity_defects: tuple[tuple[str, float], ...]
    samples_used: int

    def __post_init__(self) -> None:
        if self.samples_used <= 0:
            raise ValueError("a report needs at least one sample")

    def passes(self, tol: float) -> bool:
        return self.max_idempotency_defect <= tol and self.max_selfadjoint_defect <= tol

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite defect is ``None`` (strict JSON)."""
        return {
            "max_idempotency_defect": _finite_or_none(self.max_idempotency_defect),
            "max_selfadjoint_defect": _finite_or_none(self.max_selfadjoint_defect),
            "fullness_floor": self.fullness_floor,
            "continuity_defects": [
                {"branch_class": name, "defect": _finite_or_none(d)}
                for name, d in self.continuity_defects
            ],
            "samples_used": self.samples_used,
        }

    def text(self) -> str:
        lines = [
            f"samples_used: {self.samples_used}",
            f"max_idempotency_defect: {self.max_idempotency_defect}",
            f"max_selfadjoint_defect: {self.max_selfadjoint_defect}",
            f"fullness_floor: {self.fullness_floor}",
        ]
        for name, d in self.continuity_defects:
            lines.append(f"continuity_defect[{name}]: {d}")
        return "\n".join(lines)


# Samples are resolved and checked this many at a time: their fibers come as
# one stack of matrices per size, screened by cheap norm bounds so that one
# batched SVD call runs on the few matrices that can set a maximum, while the
# stacks stay small in memory.
VERIFY_CHUNK = 256

# A sum of squares below this may have lost squares to underflow, so its
# square root is not an upper bound; the screen raises it to this first.
_UNDERFLOW_SQUARE = 2.0 ** -960


def _max_opnorm(running: float, d: np.ndarray) -> float:
    """``np.maximum(running, np.linalg.norm(d, 2, axis=(1, 2)).max())`` for a
    stack ``d``, with the SVD run only on the matrices that can exceed it.

    A matrix's largest column norm is at most its operator norm, which is at
    most its Frobenius norm (Golub & Van Loan, *Matrix Computations*, §2.3).
    A matrix whose Frobenius norm, raised by a relative 1e-9 that covers the
    rounding of every norm here, is below the stack's largest column norm or
    not above ``running`` cannot set the maximum; a zero matrix has norm 0.
    The others go through the same batched call as the whole stack would,
    so the result is bit-identical.  A bound that is not finite (a square
    that overflows) screens nothing, and a NaN ``running`` stays.  An entry
    that is not finite makes the norm NaN, as the SVD of an infinite entry
    does; LAPACK would reject a NaN entry.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        cols = (np.square(d.real) + np.square(d.imag)).sum(axis=1)  # squared column norms
        fro = cols.sum(axis=1)
        if np.isfinite(fro).all():
            upper = np.sqrt(np.maximum(fro, _UNDERFLOW_SQUARE)) * (1 + 1e-9)
            upper[~d.any(axis=(1, 2))] = 0.0
            keep = (upper >= np.sqrt(cols.max())) & (upper > running)
            if not keep.any():
                return running
            d = d[keep]
        elif not np.isfinite(d).all():
            return np.maximum(running, math.nan)
        return np.maximum(running, np.linalg.norm(d, 2, axis=(1, 2)).max())


def _checked_stacks(p: AlgebraElement, samples: list[PointRef]) -> Iterator[np.ndarray]:
    """The element's matrix stacks over the samples, ``VERIFY_CHUNK`` samples
    at a time; ``ValueError`` for no samples or an entry that is not finite.
    Over a grid's own points they are the stacks it kept, as ``fiber_stacks``."""
    if not samples:
        raise ValueError("need at least one sample point")
    if isinstance(p.rule, GridRule) and p.rule.stacks and tuple(samples) == p.rule.points:
        chunks = [p.rule.stacks]
    else:
        chunks = (fiber_stacks(p, samples[i:i + VERIFY_CHUNK]) for i in range(0, len(samples), VERIFY_CHUNK))
    for _, a in itertools.chain.from_iterable(chunks):
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        yield a


def verify_projection(p: AlgebraElement, samples: list[PointRef]) -> VerificationReport:
    """Operator-norm defects of idempotency and self-adjointness over samples.

    ``report.passes(tol)`` holds iff both maxima are within ``tol``; the
    fullness floor over the same samples is included for convenience.  The
    samples are resolved ``VERIFY_CHUNK`` at a time (``fiber_stacks``), and
    each stack of one fiber size is checked at once; the maxima and the
    floor are those of the per-sample values.  ``_max_opnorm`` runs the SVD
    only on the matrices whose norm bounds leave them able to raise a
    running maximum; the bounds hold with a margin for rounding, so the
    maxima do not change.
    """
    max_idem, max_sa, floor = 0.0, 0.0, math.inf
    for a in _checked_stacks(p, samples):
        # The running maxima keep a NaN defect (a square that overflows)
        # instead of dropping it, so such a report fails rather than reading
        # 0; the overflow itself is that NaN, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            max_idem = _max_opnorm(max_idem, a @ a - a)
        max_sa = _max_opnorm(max_sa, a - a.conj().transpose(0, 2, 1))
        floor = min(floor, float(np.abs(a).max(axis=(1, 2)).min()))
    return VerificationReport(
        max_idempotency_defect=float(max_idem),
        max_selfadjoint_defect=float(max_sa),
        fullness_floor=floor,
        continuity_defects=(),
        samples_used=len(samples),
    )


def verify_fullness_witness(p: AlgebraElement, samples: list[PointRef]) -> float:
    """Minimum over samples of the largest entry magnitude of the fiber matrix.

    A strictly positive floor over a stratified sample set is the numerical
    witness that the element does not vanish over any base point; zero means
    some sampled fiber matrix is identically zero.  The samples are taken
    in stacks, as ``verify_projection`` takes them.
    """
    return min(float(np.abs(a).max(axis=(1, 2)).min()) for a in _checked_stacks(p, samples))


def _aitken(seq: list[complex]) -> list[complex]:
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        denom = (c - b) - (b - a)
        if abs(denom) < 1e-300:
            out.append(c)
        else:
            out.append(c - (c - b) ** 2 / denom)
    return out


def extrapolate_limit(values: Iterable[complex]) -> complex:
    """Accelerated limit of a geometrically converging sequence.

    Iterated Aitken acceleration; exact for sequences of the form
    L + c * r^k, which covers the entry profiles (linear and square-root in
    the distance parameter) produced along geometric approach sequences.
    """
    seq = [complex(v) for v in values]
    for _ in range(3):
        if len(seq) < 3:
            break
        seq = _aitken(seq)
    return seq[-1]


@dataclass(frozen=True)
class ContinuityDefect:
    sequence: str  # "<branch class>:<direction>"
    defect: float


def check_branch_continuity(
    f: AlgebraElement,
    seqs: list[ApproachSequence],
) -> list[ContinuityDefect]:
    """Extrapolated limits along approach sequences versus branch-point values.

    For each sequence, each fiber member of the closest sample is carried to
    distance 0 along the line through its last two positions; its limit is
    the lift of the target class that has the ``qkey`` of that point after
    ``normalize``.  Entries between members converging to lifts of the same
    branch point are extrapolated and compared against the element's value
    there, and the defect is the largest entry deviation.  A member whose
    line ends outside the total space (``DomainError``) or at no lift of the
    class has no limit there and is excluded.
    """
    model = f.model
    out = []
    for seq in seqs:
        block, *others = resolve_orbits(model, seq.samples)
        if others:
            raise ValueError(f"fiber size changes along approach sequence {seq.direction!r}")
        values = _entries_at(f, block)
        targets, lifts = {}, {}  # per class member its fiber; per key of a lift, its member and index
        for name in model.branch_class(seq.branch_class).members:
            (targets[name],) = resolve_orbits(model, [model.named_point(name)])
            lifts.update((key, (name, a)) for a, key in enumerate(targets[name].orbit(0).keys))
        matched = {name: [] for name in targets}  # per class member, (i, a): member i goes to lift a
        d_prev, d_last = seq.distances[-2:]
        for i, (p, q, chart) in enumerate(zip(*block.coords[-2:].tolist(), block.charts[-1].tolist())):
            at_zero = tuple([b + (b - a) * d_last / (d_prev - d_last) for a, b in zip(p, q)])
            y = model.try_normalize(PointRef(chart, at_zero))
            if y is not None and qkey(y) in lifts:  # else no limit in the class
                name, a = lifts[qkey(y)]
                matched[name].append((i, a))
        defect = 0.0
        for name, idxs in matched.items():
            if not idxs:
                continue
            target = _entries_at(f, targets[name])[0]
            for i, a in idxs:
                for j, b in idxs:
                    lim = extrapolate_limit(values[:, i, j])
                    defect = max(defect, abs(lim - target[a, b]))
        out.append(ContinuityDefect(f"{seq.branch_class}:{seq.direction}", defect))
    return out


def restrict(f: AlgebraElement, side: str) -> AlgebraElement:
    """Restriction homomorphism onto one factor of a wedge, ``"left"`` or ``"right"``.

    Either factor is closed and invariant (fibers never cross the glue
    point), and the restriction is evaluation over the factor: it is
    multiplicative and adjoint-preserving fiberwise by construction.  Any
    other model or side raises ``InvarianceError``.
    """
    if not isinstance(f.model, WedgeModel):
        raise InvarianceError(f"only a wedge restricts, not a {type(f.model).__name__}")
    if side not in ("left", "right"):
        raise InvarianceError(f"a wedge restricts to 'left' or 'right', not {side!r}")
    return AlgebraElement(getattr(f.model, side), RestrictRule(f, side))
