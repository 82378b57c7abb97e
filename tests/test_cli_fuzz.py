"""Property test of the command line contract on mutated inputs.

Every ``verify`` file (over the standard wedge or the figure cover of the
split-wedge base), ``ktheory solve`` file and ``example`` parameter list
ends in exit 0, 1 or 2 with no exception escaping ``cli.main``; exit 2 prints
nothing on stdout and exactly one ``error:`` line on stderr, and exits 0 and
1 print nothing on stderr.  Inputs are valid files with one or two nodes
replaced, removed or added.  Numbers stay small, so that no mutation can ask
for a huge sample set, fiber or matrix.  A key that no object declares, added
to any object of a file at any depth, always exits 2.
"""

import contextlib
import inspect
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fell_lab.cli import main
from fell_lab.conv import BUILTINS
from fell_lab.spaces import aab_ab_figure_cover

# Includes a newline: an error message that embeds one breaks the one-line rule.
TEXT = st.text("abkmprstz_0.-=\n", max_size=5)
NAMES = st.sampled_from(
    [
        "kind", "wedge", "twisted_sphere", "solenoid_aab_ab", "broken_heart", "pinch",
        "cover", "interval", "rule", "builtin", "grid", "indicator", "identity", "params",
        "perturb_first_diag", "chart", "coord", "matrix", "points", "rank", "delta0",
    ]
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(width=64),
    TEXT,
    NAMES,
)
JSON = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT | NAMES, kids, max_size=3),
    max_leaves=6,
)

WEDGE = {
    "kind": "wedge",
    "left": {"kind": "solenoid_aab_ab"},
    "right": {"kind": "broken_heart"},
    "left_point": {"chart": 0, "coord": [2.5]},
    "right_point": {"chart": 0, "coord": [0.0]},
}
MODELS = [WEDGE, aab_ab_figure_cover().to_dict()]
ELEMENTS = [
    {"rule": "builtin", "name": "identity"},
    {"rule": "builtin", "name": "zero", "params": {}},
    {"rule": "builtin", "name": "twisted_sphere_projection", "params": {"perturb_first_diag": 0.0}},
    {
        "rule": "indicator",
        "region": {"pieces": [{"chart": 0, "box": [{"lo": 1.0, "hi": 2.0, "hi_closed": False}]}]},
    },
    {
        "rule": "grid",
        "points": [
            {"chart": 0, "coord": [2.7], "matrix": [[[1.0, 0.0]]]},
            {"chart": 2, "coord": [0.5], "matrix": [[[0.0, 0.0]]]},
            {
                "chart": 0,
                "coord": [0.25],
                "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            },
        ],
    },
]
KTHEORY_FILES = [
    {
        "K0_I": {"rank": 0},
        "K1_I": {"rank": 2},
        "K0_Q": {"rank": 3},
        "K1_Q": {"rank": 0},
        "delta0": {"rows": 2, "cols": 3, "entries": [-1, 1, 0, 1, -1, 0]},
    },
    {
        "K0_I": {"rank": 1, "torsion": []},
        "K1_I": {"rank": 1},
        "K0_Q": {"rank": 1},
        "K1_Q": {"rank": 1},
        "delta0": {"rows": 1, "cols": 1, "entries": [0]},
        "delta1": {"rows": 1, "cols": 1, "entries": [2]},
    },
]
SCENARIOS = ["aab-ab", "broken-heart", "broken-heart-wedge", "twisted-sphere", "pinch", "circle"]
SAMPLED = {"aab-ab", "broken-heart-wedge", "twisted-sphere"}  # default sample counts are large
PARAM_KEYS = st.sampled_from(["samples", "seed", "tol", "m", "k", "samplez"]) | TEXT
PARAM_VALUES = st.integers(-3, 40).map(str) | st.floats(width=64).map(repr) | TEXT

FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def mutated(draw, tree):
    """``tree`` with one node replaced, removed or added, at a drawn depth."""
    if isinstance(tree, (dict, list)) and tree and draw(st.integers(0, 3)):
        out = dict(tree) if isinstance(tree, dict) else list(tree)
        key = draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
        move = draw(st.sampled_from(("into", "into", "drop", "add")))
        if move == "into":
            out[key] = draw(mutated(out[key]))
        elif move == "drop":
            del out[key]
        elif isinstance(out, dict):
            out[draw(TEXT | NAMES)] = draw(JSON)
        else:
            out.insert(key, draw(JSON))
        return out
    return draw(JSON)


# Keys that no object of either file format declares.
UNDECLARED = st.sampled_from(
    ["delta_0", "torsoin", "equator_thta", "hi_closd", "parms", "cord"]
) | TEXT.map(lambda t: "x" + t)


@st.composite
def with_undeclared_key(draw, tree):
    """A copy of ``tree`` with an undeclared key added to one of its objects,
    the top level or one nested at any depth."""
    tree = json.loads(json.dumps(tree))
    objects, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            objects.append(node)
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    draw(st.sampled_from(objects))[draw(UNDECLARED)] = draw(JSON)
    return tree


@st.composite
def mutants(draw, trees):
    tree = draw(st.sampled_from(trees))
    for _ in range(draw(st.integers(0, 2))):
        tree = draw(mutated(tree))
    return tree


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_contract(rc, out, err):
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


def file_argv(tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return command + [str(path)]


@FUZZ
@given(data=mutants([{"model": m, "element": e} for m in MODELS for e in ELEMENTS]),
       samples=st.integers(-1, 40), as_json=st.booleans(), tol=st.floats(width=64))
def test_verify_files(tmp_path, data, samples, as_json, tol):
    argv = file_argv(tmp_path, ["verify"], data) + [f"--samples={samples}", f"--tol={tol!r}"]
    assert_contract(*run(argv + ["--json"] * as_json))


@FUZZ
@given(command_and_file=st.sampled_from(
           [(["verify"], {"model": m, "element": e}) for m in MODELS for e in ELEMENTS]
           + [(["ktheory", "solve"], f) for f in KTHEORY_FILES]),
       data=st.data())
def test_undeclared_key_at_any_depth_exit_2(tmp_path, command_and_file, data):
    command, tree = command_and_file
    rc, out, err = run(file_argv(tmp_path, command, data.draw(with_undeclared_key(tree))))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@FUZZ
@given(data=mutants(KTHEORY_FILES), as_json=st.booleans())
def test_ktheory_files(tmp_path, data, as_json):
    assert_contract(*run(file_argv(tmp_path, ["ktheory", "solve"], data) + ["--json"] * as_json))


@FUZZ
@given(name=st.sampled_from(SCENARIOS),
       pairs=st.lists(st.tuples(PARAM_KEYS, st.sampled_from("=:"), PARAM_VALUES), max_size=3),
       samples=st.integers(-1, 40), as_json=st.booleans())
def test_example_parameter_lists(name, pairs, samples, as_json):
    params = [f"{k}{sep}{v}" for k, sep, v in pairs]
    if name in SAMPLED and not any(p.startswith("samples=") for p in params):
        params.append(f"samples={samples}")
    argv = ["example", name] + [f"--param={p}" for p in params] + ["--json"] * as_json
    assert_contract(*run(argv))


@FUZZ
@given(model=st.sampled_from([WEDGE, {"kind": "twisted_sphere"}]),
       name=st.sampled_from(sorted(BUILTINS)),
       params=st.dictionaries(st.sampled_from(["perturb_first_diag", "perturb_frist_diag"]) | TEXT,
                              st.floats(-1e-3, 1e-3), max_size=2))
def test_builtin_parameters_outside_the_declared_set_exit_2(tmp_path, model, name, params):
    element = {"rule": "builtin", "name": name, "params": params}
    rc, out, err = run(file_argv(tmp_path, ["verify"], {"model": model, "element": element})
                       + ["--samples=20"])
    assert_contract(rc, out, err)
    declared = list(inspect.signature(BUILTINS[name]).parameters)[1:]
    if any(key not in declared for key in params):
        assert rc == 2
