"""Command-line interface: output schema, round-trips, exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from invariant_chains import cli
from invariant_chains.theorems import VerificationReport


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_compute_small_group(capsys):
    code, data = run_json(capsys, ["compute", "--group", "cyclic:3",
                                   "--action", "negation", "--coeff", "Z",
                                   "--max-degree", "4"])
    assert code == 0
    assert data["schema"] == 1
    rows = {r["degree"]: r for r in data["homology"]}
    assert rows[0] == {"degree": 0, "free_rank": 1, "torsion": []}
    assert rows[3] == {"degree": 3, "free_rank": 0, "torsion": [3]}
    assert rows[1]["torsion"] == [] and rows[1]["free_rank"] == 0


def test_compute_with_maps(capsys):
    code, data = run_json(capsys, ["compute", "--group", "cyclic:4",
                                   "--action", "negation", "--max-degree", "2",
                                   "--maps"])
    assert code == 0
    assert {m["map"] for m in data["maps"]} == {"fixed_to_invariant",
                                                "invariant_to_full", "norm"}
    assert data["quotient_homology"][1]["torsion"] == [2]
    for entry in data["maps"]:
        assert {"matrix", "kernel_order", "image_order", "degree"} <= set(entry)


def test_classical_matches_spec_example(capsys):
    code, data = run_json(capsys, ["classical", "--group", "cyclic:6",
                                   "--coeff", "Z", "--max-degree", "3"])
    assert code == 0
    torsions = [r["torsion"] for r in data["homology"][1:]]
    assert torsions == [[6], [], [6]]


def test_compute_trivial_action_matches_classical(capsys):
    _, inv = run_json(capsys, ["compute", "--group", "cyclic:5",
                               "--action", "trivial", "--coeff", "Z",
                               "--max-degree", "2"])
    _, cls = run_json(capsys, ["classical", "--group", "cyclic:5",
                               "--coeff", "Z", "--max-degree", "2"])
    assert inv["homology"] == cls["homology"]
    assert inv["homology"][1]["torsion"] == [5]


def test_json_round_trip_is_byte_identical(capsys):
    code, _ = run_cli(capsys, ["info", "--group", "cyclic:4", "--action",
                               "negation", "--format", "json"])
    assert code == 0
    code, out = run_cli(capsys, ["info", "--group", "cyclic:4", "--action",
                                 "negation", "--format", "json"])
    reparsed = json.dumps(json.loads(out.strip()), sort_keys=True,
                          separators=(",", ":"))
    assert reparsed == out.strip()


def test_info_counts(capsys):
    code, data = run_json(capsys, ["info", "--group", "cyclic:8",
                                   "--action", "negation", "--max-degree", "5"])
    assert code == 0
    assert data["fixed_subgroup_order"] == 2
    rows = {r["degree"]: r for r in data["degrees"]}
    assert rows[5]["tuples"] == 32768
    # Burnside: (8^5 + 2^5) / 2 tuples fixed entrywise by negation
    assert rows[5]["orbits"] == 16400
    code, data2 = run_json(capsys, ["info", "--group", "cyclic:2",
                                    "--action", "negation"])
    assert data2["fixed_subgroup_order"] == 2


def test_verify_pass_and_fail_exit_codes(capsys):
    code, data = run_json(capsys, ["verify", "n_odd", "--n", "3",
                                   "--max-degree", "3"])
    assert code == 0 and data["passed"] is True
    # the published closed form at degree 3 mod 4 disagrees with computation,
    # so this suite reports a failure and the command exits 1
    code, data = run_json(capsys, ["verify", "n_0_mod_4", "--s", "2",
                                   "--max-degree", "3"])
    assert code == 1 and data["passed"] is False


def test_verify_multiple_suites(capsys):
    code, data = run_json(capsys, ["verify", "integer_line", "divisible",
                                   "--bound", "10", "--group", "cyclic:7",
                                   "--action", "negation"])
    assert code == 0
    assert len(data["reports"]) == 2


def test_verify_unknown_suite_exits_2(capsys):
    assert cli.main(["verify", "not_a_suite"]) == 2


def test_verify_failing_stub_exits_1(capsys, monkeypatch):
    def stub(n, max_degree):
        report = VerificationReport("stub")
        report.check("always fails", False)
        return report

    monkeypatch.setitem(cli.REGISTRY, "n_odd", stub)
    assert cli.main(["verify", "n_odd"]) == 1


def test_bad_specs_exit_2(capsys):
    assert cli.main(["compute", "--group", "cyclic:x"]) == 2
    assert cli.main(["compute", "--group", "cyclic:4", "--coeff", "Q"]) == 2
    assert cli.main(["compute", "--group", "cyclic:4", "--action", "spin"]) == 2
    capsys.readouterr()
    # each of these exits 2 with one error line and no output, not a traceback
    for argv in (["compute", "--group", "cyclic:0"],
                 ["compute", "--group", "cyclic:4", "--max-degree", "-2"],
                 ["compute", "--group", "cyclic:4", "--max-degree", "-1"],
                 ["classical", "--group", "cyclic:4", "--max-degree", "-1"],
                 ["verify", "structure"],
                 ["verify", "transfer", "--group", "cyclic:6"],
                 ["verify", "not_a_suite"],
                 # every suite name is checked before any suite runs
                 ["verify", "n_odd", "not_a_suite"],
                 # 2^31 transversals to try, refused before the search
                 ["verify", "transfer", "--group", "cyclic:64", "--subgroup", "32",
                  "--max-degree", "1"],
                 ["verify", "transfer", "--group", "cyclic:6", "--subgroup", "abc"],
                 ["verify", "transfer", "--group", "cyclic:6", "--subgroup", "99"],
                 ["verify", "transfer", "--group", "cyclic:6", "--subgroup", "6"],
                 ["verify", "transfer", "--group", "cyclic:6", "--subgroup", "-1"],
                 ["verify", "n_odd", "--n", "4"],
                 ["verify", "n_2k", "--k", "2"],
                 ["verify", "n_0_mod_4", "--s", "1"],
                 ["verify", "integer_line", "--bound", "3"],
                 *(["verify", "structure", "--group", "cyclic:4", "--coeff-a", a,
                    "--max-degree", "2"] for a in ("4", "0", "1", "-3")),
                 # Z/2 does not invert |Q| = 2, so the structure claims do not apply
                 ["verify", "structure", "--group", "cyclic:4", "--coeff-a", "2",
                  "--max-degree", "3"],
                 ["compute", "--group", "cyclic:4", "--memory-budget=0"],
                 ["compute", "--group", "cyclic:4", "--memory-budget=-1G"],
                 # counts with more digits than an int prints by default: 3^10001
                 # tuples; 2^14280 tuples print, but their byte estimate does not
                 *(["info", "--group", group, "--max-degree", degree, "--format", fmt]
                   for group, degree in (("cyclic:3", "10000"), ("cyclic:2", "14279"))
                   for fmt in ("table", "json"))):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_bad_budget_is_named_as_typed(capsys):
    for typed in ("1.5g", " 2 gb"):
        assert cli.main(["compute", "--group", "cyclic:4", f"--memory-budget={typed}"]) == 2
        assert capsys.readouterr().err == f"error: bad memory budget {typed!r}\n"


def test_budget_exceeded_exits_3(capsys):
    # the multiplication tables of the two huge groups alone would need
    # petabytes, so their budget check must come before the table is built
    for argv in (["compute", "--group", "cyclic:6", "--max-degree", "4",
                  "--memory-budget", "1K"],
                 ["compute", "--group", "cyclic:100000000", "--max-degree", "1"],
                 ["verify", "n_0_mod_4", "--s", "40"],
                 # estimates with more digits than an int prints by default
                 ["compute", "--group", "cyclic:3", "--max-degree", "20000"],
                 ["compute", "--group", "cyclic:" + "9" * 2200]):
        start = time.perf_counter()
        assert cli.main(argv) == 3, argv
        assert time.perf_counter() - start < 5, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv


def test_orbit_estimate_admits_a_budget_the_tuples_exceed(capsys):
    # inv(Z/4) through degree 8 peaks at 66 MB; its tuples would count
    # ~114 MB, its orbits ~57 MB
    argv = ["compute", "--group", "cyclic:4", "--max-degree", "7", "--format", "json"]
    assert cli.main(argv + ["--memory-budget", "100M"]) == 0
    assert capsys.readouterr().err == ""
    code, data = run_json(capsys, ["info", "--group", "cyclic:4", "--max-degree", "7"])
    assert code == 0
    assert data["estimated_build_bytes"] == sum(
        row["orbits"] * (row["degree"] + 1) * 150 for row in data["degrees"])
    assert 50 * 1024 ** 2 < data["estimated_build_bytes"] < 100 * 1024 ** 2


def test_maps_rejects_field_coefficients_before_building(capsys):
    # a bad spec exits 2 before any complex is built, so the budget is never reached
    assert cli.main(["compute", "--group", "cyclic:6", "--max-degree", "4", "--maps",
                     "--coeff", "Z/3", "--memory-budget", "1K"]) == 2
    assert "--maps is supported for integral coefficients" in capsys.readouterr().err


def test_memo_is_keyed_by_action_content(tmp_path, capsys):
    perm_file = tmp_path / "action.json"
    args = ["compute", "--group", "cyclic:5", "--action", f"perm:{perm_file}",
            "--max-degree", "2"]
    perm_file.write_text("[[0,1,2,3,4],[0,4,3,2,1]]")
    code, negation = run_json(capsys, args)
    assert code == 0 and negation["homology"][1]["torsion"] == []
    # same spec string, different action: the memoized complex must not be reused
    perm_file.write_text("[[0,1,2,3,4]]")
    code, trivial = run_json(capsys, args)
    assert code == 0 and trivial["homology"][1]["torsion"] == [5]
    code, spec = run_json(capsys, ["compute", "--group", "cyclic:5", "--action", "trivial",
                                   "--max-degree", "2"])
    assert code == 0 and trivial["homology"] == spec["homology"]
    assert not list(tmp_path.glob("*.tmp"))


def run_module(module, argv):
    # the child imports the package from where this process found it,
    # installed or not
    here = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (here, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point():
    proc = run_module("invariant_chains.cli", ["classical", "--group", "cyclic:2",
                                               "--max-degree", "2", "--format", "json"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["homology"][1]["torsion"] == [2]


def test_package_runs_as_a_module(capsys):
    argv = ["info", "--group", "cyclic:4", "--max-degree", "2", "--format", "json"]
    code, out = run_cli(capsys, argv)
    proc = run_module("invariant_chains", argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_table_rendering_smoke(capsys):
    code, out = run_cli(capsys, ["compute", "--group", "cyclic:3",
                                 "--action", "negation", "--max-degree", "3"])
    assert code == 0
    assert "degree" in out and "Z/3" in out
    code, out = run_cli(capsys, ["verify", "n_odd", "--n", "3", "--max-degree", "3"])
    assert "[PASS]" in out
