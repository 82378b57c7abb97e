import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fell_lab.cli import main
from fell_lab.scenarios import ScenarioSpec, UnknownScenarioError, run_scenario

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SPLICE_SES_FILE = {
    "K0_I": {"rank": 0},
    "K1_I": {"rank": 2},
    "K0_Q": {"rank": 3},
    "K1_Q": {"rank": 0},
    "delta0": {"rows": 2, "cols": 3, "entries": [-1, 1, 0, 1, -1, 0]},
}

PROJECTION_FILE = {
    "model": {"kind": "twisted_sphere"},
    "element": {"rule": "builtin", "name": "twisted_sphere_projection"},
}

NAN = float("nan")  # json.dumps writes it as NaN, which json.load accepts
IDENTITY = {"rule": "builtin", "name": "identity"}


class TestScenarios:
    def test_aab_ab_report(self):
        result = run_scenario(ScenarioSpec("aab-ab"))
        assert result.passed
        by_name = {c.name: c for c in result.checks}
        assert by_name["K0"].actual == "Z^2"
        assert by_name["K1"].actual == "Z"
        assert by_name["K0_dual"].actual == "Z^2"
        assert by_name["K1_dual"].actual == "Z"
        assert by_name["even_self_dual"].actual == "True"
        assert by_name["odd_self_dual_rationally"].actual == "False"

    def test_broken_heart_flags_no_projections(self):
        result = run_scenario(ScenarioSpec("broken-heart"))
        assert result.passed
        assert "no nonzero projections" in result.flags
        by_name = {c.name: c for c in result.checks}
        assert by_name["K0"].actual == "0"

    def test_twisted_sphere_scenario(self):
        result = run_scenario(
            ScenarioSpec("twisted-sphere", {"samples": 2000, "tol": 1e-12})
        )
        assert result.passed
        by_name = {c.name: c for c in result.checks}
        assert float(by_name["fullness_floor"].actual) >= 0.25

    def test_wedge_scenario(self):
        result = run_scenario(ScenarioSpec("broken-heart-wedge", {"samples": 300}))
        assert result.passed
        assert "no full projection" in result.flags

    def test_pinch_scenario(self):
        result = run_scenario(ScenarioSpec("pinch", {"m": 2, "k": 3}))
        assert result.passed
        by_name = {c.name: c for c in result.checks}
        assert by_name["K0"].actual == "Z^5"

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenarioError):
            run_scenario(ScenarioSpec("circle"))

    def test_deterministic_given_seed(self):
        a = run_scenario(ScenarioSpec("twisted-sphere", {"samples": 800, "seed": 5}))
        b = run_scenario(ScenarioSpec("twisted-sphere", {"samples": 800, "seed": 5}))
        assert a.to_dict() == b.to_dict()


class TestExampleCommand:
    def test_exit_zero_and_output(self, capsys):
        rc = main(["example", "broken-heart"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no nonzero projections" in out
        assert "K0" in out

    def test_json_flag(self, capsys):
        rc = main(["example", "pinch", "--param", "m=3", "--param", "k=2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["scenario"] == "pinch"
        assert payload["passed"] is True

    def test_json_and_text_numeric_content_match(self, capsys):
        main(["example", "aab-ab", "--json"])
        payload = json.loads(capsys.readouterr().out)
        main(["example", "aab-ab"])
        text = capsys.readouterr().out
        for check in payload["checks"]:
            assert str(check["actual"]) in text
            assert str(check["expected"]) in text

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["example", "circle-bundle"]) == 2

    def test_bad_param_exit_2(self, capsys):
        assert main(["example", "pinch", "--param", "m3"]) == 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_pinch_without_split_points_passes(self, k, capsys):
        # With m = 0 every fiber has k members; the size-1 fibers need a split point.
        rc = main(["example", "pinch", "--param", "m=0", "--param", f"k={k}", "--json"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert rc == 0
        assert checks["fiber_sizes"]["actual"] == f"[{k}]"

    def test_usage_error_exit_2(self, capsys):
        assert main(["no-such-command"]) == 2


class TestKtheorySolveCommand:
    def test_splice_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "ses.json", SPLICE_SES_FILE)
        rc = main(["ktheory", "solve", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K0 = Z^2" in out
        assert "K1 = Z" in out

    def test_zero_map_file(self, tmp_path, capsys):
        payload = {
            "K0_I": {"rank": 1},
            "K1_I": {"rank": 0},
            "K0_Q": {"rank": 1},
            "K1_Q": {"rank": 0},
        }
        path = write_json(tmp_path, "zero.json", payload)
        rc = main(["ktheory", "solve", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "K0 = Z^2" in out
        assert "K1 = 0" in out

    def test_torsion_input_exit_2(self, tmp_path, capsys):
        payload = dict(SPLICE_SES_FILE)
        payload["K0_Q"] = {"rank": 3, "torsion": [2]}
        path = write_json(tmp_path, "torsion.json", payload)
        assert main(["ktheory", "solve", path]) == 2
        assert "torsion-free" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("delta0", {"rows": 2, "cols": 3, "entries": [-1, 1.7, 0, 1, -1, 0]}),
            ("delta0", {"rows": 2, "cols": 3, "entries": [-1, True, 0, 1, -1, 0]}),
            ("delta0", {"rows": 2.0, "cols": 3, "entries": [-1, 1, 0, 1, -1, 0]}),
            ("delta0", {"rows": 2, "cols": 3.0, "entries": [-1, 1, 0, 1, -1, 0]}),
            ("K1_I", {"rank": 1.9}),
            ("K0_I", {"rank": False}),
            ("K0_Q", {"rank": 3, "torsion": [2.5]}),
        ],
    )
    def test_inexact_input_exit_2(self, tmp_path, capsys, key, value):
        payload = dict(SPLICE_SES_FILE)
        payload[key] = value
        path = write_json(tmp_path, "inexact.json", payload)
        assert main(["ktheory", "solve", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "must be a JSON integer" in captured.err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["ktheory", "solve", str(path)]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert main(["ktheory", "solve", "/no/such/file.json"]) == 2

    def test_json_output_matches_text(self, tmp_path, capsys):
        path = write_json(tmp_path, "ses.json", SPLICE_SES_FILE)
        main(["ktheory", "solve", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"K0": "Z^2", "K1": "Z"}


class TestVerifyCommand:
    def test_builtin_projection_passes(self, tmp_path, capsys):
        path = write_json(tmp_path, "p.json", PROJECTION_FILE)
        rc = main(["verify", path, "--samples", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_idempotency_defect" in out

    def test_perturbed_projection_fails_with_reported_defect(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "twisted_sphere"},
            "element": {
                "rule": "builtin",
                "name": "twisted_sphere_projection",
                "params": {"perturb_first_diag": 0.1},
            },
        }
        path = write_json(tmp_path, "pp.json", payload)
        rc = main(["verify", path, "--samples", "2000", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert 0.09 <= report["max_idempotency_defect"] <= 0.16

    def test_indicator_passes_exactly(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {
                "rule": "indicator",
                "region": {
                    "pieces": [
                        {
                            "chart": 0,
                            "box": [
                                {
                                    "lo": 1.0,
                                    "hi": 2.0,
                                    "lo_closed": True,
                                    "hi_closed": False,
                                }
                            ],
                        }
                    ]
                },
            },
        }
        path = write_json(tmp_path, "ind.json", payload)
        rc = main(["verify", path, "--samples", "400", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["max_idempotency_defect"] == 0.0
        assert report["max_selfadjoint_defect"] == 0.0

    def test_grid_element_uses_its_own_points(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {
                "rule": "grid",
                "points": [
                    {"chart": 0, "coord": [2.5], "matrix": [[[1.0, 0.0]]]},
                    {
                        "chart": 0,
                        "coord": [0.25],
                        "matrix": [
                            [[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0]],
                        ],
                    },
                ],
            },
        }
        path = write_json(tmp_path, "grid.json", payload)
        rc = main(["verify", path, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["samples_used"] == 2

    def test_overflowing_square_fails_quietly_with_strict_json(self, tmp_path, capsys):
        # 1e200 is finite, its square is not: the defect is NaN and the check
        # fails, with no numpy warning on stderr and `null` in the JSON.
        payload = {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {
                "rule": "grid",
                "points": [{"chart": 0, "coord": [2.5], "matrix": [[[1e200, 0.0]]]}],
            },
        }
        path = write_json(tmp_path, "overflow.json", payload)
        assert main(["verify", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max_idempotency_defect: nan" in captured.out

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main(["verify", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out, parse_constant=reject)
        assert report["max_idempotency_defect"] is None

    def test_model_mismatch_exit_2(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "solenoid_aab_ab"},
            "element": {"rule": "builtin", "name": "twisted_sphere_projection"},
        }
        path = write_json(tmp_path, "mismatch.json", payload)
        assert main(["verify", path]) == 2

    def test_json_and_text_numeric_content_match(self, tmp_path, capsys):
        path = write_json(tmp_path, "p.json", PROJECTION_FILE)
        main(["verify", path, "--samples", "500", "--json"])
        report = json.loads(capsys.readouterr().out)
        main(["verify", path, "--samples", "500"])
        text = capsys.readouterr().out
        for key in (
            "max_idempotency_defect",
            "max_selfadjoint_defect",
            "fullness_floor",
            "samples_used",
        ):
            assert f"{key}: {report[key]}" in text


@pytest.mark.parametrize(
    "command, payload",
    [
        ("ktheory", [SPLICE_SES_FILE]),
        ("ktheory", {**SPLICE_SES_FILE, "delta0": []}),
        ("ktheory", {**SPLICE_SES_FILE, "K0_I": 5}),
        ("verify", [PROJECTION_FILE]),
        ("verify", {**PROJECTION_FILE, "model": 5}),
        ("verify", {**PROJECTION_FILE, "element": 5}),
        (
            "verify",
            {
                "model": {"kind": "solenoid_aab_ab"},
                "element": {
                    "rule": "grid",
                    "points": [{"chart": 0, "coord": [2.5], "matrix": [[[NAN, 0.0]]]}],
                },
            },
        ),
        (
            "verify",
            {"model": {"kind": "solenoid_aab_ab"}, "element": {"rule": "indicator", "region": 5}},
        ),
        ("verify", {**PROJECTION_FILE, "element": {**IDENTITY, "params": []}}),
        ("verify", {"model": {"kind": "twisted_sphere", "equator_theta": "nan"}, "element": IDENTITY}),
        (
            "verify",
            {
                "model": {"kind": "solenoid_aab_ab"},
                "element": {
                    "rule": "indicator",
                    "region": {"pieces": [{"chart": 0, "box": [{"lo": NAN, "hi": 2.0}]}]},
                },
            },
        ),
        (
            "verify",
            {"model": {"kind": "pinch", "split_points": [0.5], "sheets": 2.7}, "element": IDENTITY},
        ),
        ("example", ["twisted-sphere", "samplez=5"]),
        ("example", ["twisted-sphere", "seed=x"]),
        ("example", ["aab-ab", "samples=1.5"]),
        ("example", ["pinch", "m=-1"]),
        ("example", ["pinch", "k=1"]),
        ("example", ["aab-ab", "samples=0"]),
        ("example", ["broken-heart-wedge", "samples=-3"]),
        ("example", ["twisted-sphere", "samples=-5"]),
        ("verify --samples 0", PROJECTION_FILE),
        ("verify --samples -3", PROJECTION_FILE),
        (
            "verify",
            {
                "model": {"kind": "solenoid_aab_ab"},
                "element": {
                    "rule": "grid",
                    "points": [{"chart": 0, "coord": [2.5], "matrix": [[[True, False]]]}],
                },
            },
        ),
    ],
)
def test_non_object_json_exit_2(tmp_path, capsys, command, payload):
    """Malformed input, in a file, in an option or as an example's parameters,
    is a usage error: exit 2, one ``error:`` line and no traceback, before any
    check."""
    if command == "example":
        name, *params = payload
        argv = ["example", name] + [arg for p in params for arg in ("--param", p)]
    else:
        head, *options = command.split()
        path = write_json(tmp_path, "shape.json", payload)
        argv = (["ktheory", "solve", path] if head == "ktheory" else ["verify", path]) + options
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "fell_lab", "example", "broken-heart"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "no nonzero projections" in proc.stdout
