"""The chunked grid path against the per-point path it replaced.

``conv._read_points`` checks a chunk of grid points as a whole and reads its
matrices as arrays; ``read_json(GridPoint)`` point by point is its oracle, bit
for bit on valid chunks and by exception type and message on chunks with one
bad point.  ``grid_element`` checks each block as one stack; the per-point
loop it replaced is its oracle, fault order included.  ``element_from_dict``
reads and resolves a chunk at a time, so a fault is the one the per-point
path met first.  ``cli verify`` resolves each grid point once.
"""

import copy
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fell_lab import cli, conv, spaces
from fell_lab.conv import VERIFY_CHUNK, GridPoint, _read_points, element_from_dict, grid_element
from fell_lab.spaces import PointRef, read_json, resolve_orbits
from orbit_reference import quarters_cover

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SPECIAL = [0, 1, -7, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           2**53 + 1, 2**1000, -(2**1000), 10**300]

# One bad value per kind, put in one point of an otherwise valid chunk.
BAD_KINDS = ("true", "string", "null", "nan", "inf", "huge", "triple", "ragged", "row-not-list",
             "missing-key", "extra-key", "chart-float", "chart-false", "coord-inf", "coord-true",
             "coord-text", "not-object")


def number(rng):
    """A finite JSON number: small and huge ints, signed zeros, subnormals, plain floats."""
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIAL)
    if r < 0.45:
        return rng.randint(-10**6, 10**6)
    if r < 0.55:
        return rng.randint(-2**1000, 2**1000)
    if r < 0.65:
        return rng.uniform(-1.0, 1.0) * 2.0 ** -1060  # subnormal
    return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-5, 5)


def any_points(rng, n, sizes):
    """Points as ``json.load`` gives them, with any chart, coordinates and entries."""
    return [{"chart": rng.choice([0, 3, -2, 2**70]), "coord": [number(rng) for _ in range(rng.randint(0, 2))],
             "matrix": [[[number(rng), number(rng)] for _ in range(k)] for _ in range(k)]}
            for k in (rng.choice(sizes) for _ in range(n))]


def quarter_points(rng, n, sizes):
    """Valid points of the quarters cover: the i-th on chart 0 inside the quarter
    whose fibers have its matrix's size, no two over one base point."""
    points = []
    for i in range(n):
        k = rng.choice(sizes)
        t = 0.25 * (k - 1) + 0.25 * (i + 0.5) / n
        points.append({"chart": 0, "coord": [t],
                       "matrix": [[[number(rng), number(rng)] for _ in range(k)] for _ in range(k)]})
    return points


def spoil(point, kind, rng):
    """A copy of a point with one bad value of the kind."""
    p = copy.deepcopy(point)
    row = rng.choice(p["matrix"])
    pair = rng.choice(row)
    entry = {"true": True, "string": "1.0", "null": None, "nan": math.nan, "inf": -math.inf, "huge": 10**400}
    if kind in entry:
        pair[rng.randrange(2)] = entry[kind]
    elif kind == "triple":
        pair.append(0.0)
    elif kind == "ragged":
        row.pop()
    elif kind == "row-not-list":
        p["matrix"][rng.randrange(len(p["matrix"]))] = 1.0
    elif kind == "missing-key":
        del p[rng.choice(list(GridPoint._fields))]
    elif kind == "extra-key":
        p["weight"] = 1
    elif kind in ("chart-float", "chart-false"):
        p["chart"] = 0.0 if kind == "chart-float" else False
    elif kind in ("coord-inf", "coord-true", "coord-text"):
        p["coord"] = {"coord-inf": [math.inf], "coord-true": [True], "coord-text": ""}[kind]
    else:
        p = [p["chart"], p["coord"], p["matrix"]]
    return p


def outcome(read, *args):
    """What a call gave: its exception's type and message, or its value."""
    try:
        return "ok", read(*args)
    except Exception as exc:  # every outcome, fault or value, is compared
        return type(exc), str(exc)


def read_reference(chunk):
    """The per-point read that ``_read_points`` replaced."""
    return [(PointRef(p.chart, p.coord), p.matrix) for p in (read_json(GridPoint, q, "points[]") for q in chunk)]


def bits(pairs):
    """(point, matrix) pairs exactly, signed zeros included."""
    out = []
    for x, mat in pairs:
        try:
            mat = np.asarray(mat, dtype=complex)
            mat = (mat.shape, mat.tobytes())
        except ValueError:  # a ragged matrix stays as it was read
            pass
        out.append((type(x.chart), x.chart, np.array(x.coord, dtype=float).tobytes(), mat))
    return out


def grid_element_reference(model, values):
    """The per-point checks that ``grid_element`` replaced."""
    items = iter(values)
    stored, points = {}, []
    while chunk := [item for _, item in zip(range(VERIFY_CHUNK), items)]:
        fibers = sorted((row, label, block.size) for block in resolve_orbits(model, [x for x, _ in chunk])
                        for row, label in zip(block.rows.tolist(), block.labels()))
        for (_, label, size), (point, arr) in zip(fibers, chunk):
            if label in stored:
                raise ValueError(f"duplicate grid value at base point {label!r}")
            mat = np.asarray(arr, dtype=complex)
            if mat.shape != (size, size):
                raise ValueError(f"matrix shape {mat.shape} does not match fiber size {size}")
            if not np.isfinite(mat).all():
                raise ValueError(f"grid value at base point {label!r} is not finite")
            stored[label] = mat
            points.append(point)
    if not points:
        raise ValueError("a grid element needs at least one point")
    return stored, tuple(points)


def element_reference(model, points):
    """The per-point grid path of ``element_from_dict`` that the chunked one replaced."""
    values = (read_json(GridPoint, p, "points[]") for p in points)
    return grid_element_reference(model, ((PointRef(p.chart, p.coord), p.matrix) for p in values))


def grid_bits(stored, points):
    return {label: (m.shape, m.tobytes()) for label, m in stored.items()}, points


SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True)


class TestBulkRead:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), sizes=SIZES)
    def test_valid_chunks_read_bit_for_bit(self, seed, n, sizes):
        chunk = any_points(random.Random(seed), n, sizes)
        got = _read_points(chunk)
        assert all(isinstance(m, np.ndarray) for _, m in got)  # read as arrays, not point by point
        assert bits(got) == bits(read_reference(chunk))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), sizes=SIZES,
           kind=st.sampled_from(BAD_KINDS), where=st.sampled_from(["first", "255", "256", "last", "any"]))
    def test_a_bad_point_meets_the_strict_reader(self, seed, n, sizes, kind, where):
        rng = random.Random(seed)
        chunk = any_points(rng, n, sizes)
        at = {"first": 0, "255": 255, "256": 256, "last": n - 1, "any": rng.randrange(n)}[where]
        chunk[min(at, n - 1)] = spoil(chunk[min(at, n - 1)], kind, rng)
        got, want = outcome(_read_points, chunk), outcome(read_reference, chunk)
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] != "ok" else bits(got[1]) == bits(want[1])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), sizes=SIZES,
           kind=st.sampled_from(BAD_KINDS + ("chart-9", "none")),
           where=st.sampled_from(["255", "256", "any"]), chart_fault=st.booleans())
    def test_element_meets_the_first_fault_of_the_per_point_path(self, seed, n, sizes, kind, where,
                                                                 chart_fault):
        # A bad point before or after the first chunk's end, and perhaps a
        # point on a chart the model lacks: chunk i is read whole before it
        # is resolved, and after chunk i - 1 is.
        rng, model = random.Random(seed), quarters_cover()
        points = quarter_points(rng, n, sizes)
        at = min({"255": 255, "256": 256, "any": rng.randrange(n)}[where], n - 1)
        if kind == "chart-9":
            points[at]["chart"] = 9
        elif kind != "none":
            points[at] = spoil(points[at], kind, rng)
        if chart_fault and n > 10:
            points[10]["chart"] = 9
        got = outcome(lambda: element_from_dict(model, {"rule": "grid", "points": points}).rule)
        want = outcome(element_reference, model, points)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert grid_bits(got[1].values, got[1].points) == grid_bits(*want[1])
        else:
            assert got[1] == want[1]


class TestStackedGrid:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 600), sizes=SIZES,
           faults=st.lists(st.sampled_from(["duplicate", "shape", "nan", "inf", "ragged", "text", "scalar"]),
                           max_size=3))
    def test_first_fault_in_input_order(self, seed, n, sizes, faults):
        # Faults of every kind, anywhere: the stacked checks raise what the
        # per-point checks raised first, or keep the same values.
        rng, model = random.Random(seed), quarters_cover()
        values = [(PointRef(p["chart"], tuple(p["coord"])), np.array(p["matrix"], dtype=float).view(complex)[..., 0])
                  for p in quarter_points(rng, n, sizes)]
        valid = list(values)
        for fault in faults:
            i = rng.randrange(n)
            x, mat = valid[i]
            k = len(mat)
            bad = {"duplicate": lambda: (valid[rng.randrange(n)][0], mat),
                   "shape": lambda: (x, np.ones((k, k + 1))),
                   "nan": lambda: (x, np.where(np.eye(k), math.nan, mat)),
                   "inf": lambda: (x, np.full((k, k), math.inf)),
                   "ragged": lambda: (x, [[1.0] * k] + [[1.0]] * (k - 1) if k > 1 else [[]]),
                   "text": lambda: (x, [["a"] * k] * k),
                   "scalar": lambda: (x, 1.0)}[fault]
            values[i] = bad()
        got = outcome(lambda: grid_element(model, values).rule)
        want = outcome(grid_element_reference, model, values)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert grid_bits(got[1].values, got[1].points) == grid_bits(*want[1])
            # Each stored value is a row of a kept stack, in block order.
            rows = [m for _, a in got[1].stacks for m in a]
            assert len(rows) == n and all(any(v.base is a for _, a in got[1].stacks) for v in got[1].values.values())
        else:
            assert got[1] == want[1]


def test_cli_verify_resolves_each_grid_point_once(tmp_path, monkeypatch, capsys):
    # 8 rows build the wedge (its partner probes) and 600 are the points; the
    # verification folds the stacks the grid kept and resolves nothing.
    rows = []
    resolve = spaces.resolve_orbits

    def counted(model, points):
        rows.append(len(points))
        return resolve(model, points)

    monkeypatch.setattr(spaces, "resolve_orbits", counted)
    monkeypatch.setattr(conv, "resolve_orbits", counted)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(workloads.grid_file(600, False, random.Random(0)).data))
    assert cli.main(["verify", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["samples_used"] == 600
    assert sum(rows) == 608
    assert rows[-3:] == [256, 256, 88]
