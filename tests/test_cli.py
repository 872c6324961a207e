"""CLI behavior: output shapes, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

import gridhomology.cli as cli
import gridhomology.homology as homology
from gridhomology import WedgeDescriptor
from gridhomology.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    run_step_checks,
    verify_instance,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_delta(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, err = run(capsys, "build", "--family", "delta", "--m", "2", "--n", "5", "-o", str(out))
    assert code == EXIT_OK
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 13
    assert "13 vertices" in err


def test_build_grid_and_named(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "--family", "grid", "--m", "5", "--n", "2")
    assert code == EXIT_OK
    assert len(json.loads(out)["vertices"]) == 10

    code, out, _ = run(capsys, "build", "--family", "named:W", "--m", "4", "--n", "5")
    assert code == EXIT_OK
    assert len(json.loads(out)["vertices"]) == 14


def test_build_usage_errors(capsys):
    code, _, err = run(capsys, "build", "--family", "grid", "--m", "0", "--n", "2")
    assert code == EXIT_USAGE and "positive" in err
    code, _, err = run(capsys, "build", "--family", "bogus", "--m", "1", "--n", "1")
    assert code == EXIT_USAGE and "unknown family" in err
    code, _, err = run(capsys, "build", "--family", "named:Q", "--m", "2", "--n", "5")
    assert code == EXIT_USAGE and "unknown named subgraph" in err


def test_homology_independence(tmp_path, capsys):
    g = tmp_path / "d23.json"
    assert main(["build", "--family", "delta", "--m", "2", "--n", "3", "-o", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(capsys, "homology", str(g), "--complex", "independence")
    assert code == EXIT_OK
    assert json.loads(out) == {"betti": {"1": 2}}


def test_homology_matching_of_grid(tmp_path, capsys):
    g = tmp_path / "g52.json"
    assert main(["build", "--family", "grid", "--m", "5", "--n", "2", "-o", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out, _ = run(capsys, "homology", str(g), "--complex", "matching")
    assert code == EXIT_OK
    assert json.loads(out) == {"betti": {"2": 2}}
    # folding first must not change the answer
    code, out2, _ = run(capsys, "homology", str(g), "--complex", "matching", "--reduce")
    assert code == EXIT_OK and json.loads(out2) == {"betti": {"2": 2}}


def test_homology_single_vertex_contractible(tmp_path, capsys):
    g = tmp_path / "pt.json"
    g.write_text('{"vertices": ["a"], "edges": []}')
    code, out, _ = run(capsys, "homology", str(g))
    assert code == EXIT_OK
    assert json.loads(out) == {}


def test_homology_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "homology", str(bad))
    assert code == EXIT_USAGE and "invalid graph JSON" in err


def test_homology_resource_cap_exit_3(tmp_path, capsys):
    g = tmp_path / "d25.json"
    assert main(["build", "--family", "delta", "--m", "2", "--n", "5", "-o", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, _, err = run(capsys, "homology", str(g), "--max-faces", "10")
    assert code == EXIT_RESOURCE and "cap" in err
    code, _, err = run(capsys, "homology", str(g), "--max-matrix", "2")
    assert code == EXIT_RESOURCE


def test_predict_outputs(capsys):
    code, out, err = run(capsys, "predict", "--m", "2", "--n", "3")
    assert code == EXIT_OK
    assert json.loads(out) == {"spheres": {"1": 2}}
    assert err.strip() == "S^1 ∨ S^1"

    code, out, err = run(capsys, "predict", "--m", "1", "--n", "7")
    assert code == EXIT_OK
    assert json.loads(out) == {"contractible": True}
    assert err.strip() == "point"

    code, out, err = run(capsys, "predict", "--m", "2", "--n", "6")
    assert json.loads(out) == {"spheres": {"3": 5}}
    assert err.strip() == " ∨ ".join(["S^3"] * 5)


def test_predict_large_n_exits_zero(capsys):
    # bottom-up recursion needs no deep stack; the text form stays compact
    code, out, err = run(capsys, "predict", "--m", "2", "--n", "4000")
    assert code == EXIT_OK
    assert sum(json.loads(out)["spheres"].values()) > 10**500
    assert "^∨" in err and len(err) < 10**6


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "5")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["match"] is True and rep["torsion_free"] is True
    assert rep["computed"] == {"betti": {"2": 2}}

    code, out, _ = run(capsys, "verify", "--m", "1", "--n", "4")
    rep = json.loads(out)
    assert code == EXIT_OK and rep["computed"] == {"betti": {"1": 1}}

    code, out, _ = run(capsys, "verify", "--m", "3", "--n", "3")
    rep = json.loads(out)
    assert code == EXIT_OK and rep["computed"] == {"betti": {"1": 1, "2": 1}}


def test_verify_reduce_agrees_with_plain_on_acceptance_instances(capsys):
    instances = [(1, n) for n in range(1, 11)]
    instances += [(m, n) for m in (2, 3, 4) for n in range(1, 5)]
    instances += [(2, n) for n in range(5, 10)] + [(3, n) for n in range(5, 8)]
    for m, n in instances:
        plain = verify_instance(m, n, reduce=False)
        red = verify_instance(m, n, reduce=True)
        assert plain.computed == red.computed, (m, n)
        assert plain.match and red.match


def test_verify_skip_on_cap(capsys):
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "6", "--max-faces", "20")
    assert code == EXIT_RESOURCE
    rep = json.loads(out)
    assert rep["status"] == "skipped" and rep["match"] is None
    assert "skipped" in err


def test_verify_skip_on_matrix_cap_reports_faces_reached(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "6", "--max-matrix", "10")
    assert code == EXIT_RESOURCE
    rep = json.loads(out)
    assert rep["status"] == "skipped" and "over the cap" in rep["skip_reason"]
    faces = verify_instance(2, 6).reduction_stats["faces_enumerated"]
    assert rep["reduction_stats"]["faces_enumerated"] == faces > 0


@pytest.mark.parametrize("m, n, shape", [(2, 10, "17266x23431"), (3, 8, "19835x29238")])
def test_verify_checks_matrix_cap_before_any_matrix_work(capsys, monkeypatch, m, n, shape):
    def unreachable(*args):
        raise AssertionError("matrix work on an over-cap instance")

    monkeypatch.setattr(homology, "boundary_matrix", unreachable)
    monkeypatch.setattr(homology, "smith_normal_form", unreachable)
    code, out, _ = run(capsys, "verify", "--m", str(m), "--n", str(n))
    assert code == EXIT_RESOURCE
    rep = json.loads(out)
    assert rep["status"] == "skipped"
    assert rep["skip_reason"] == (
        f"boundary matrix at dimension 5 is {shape}, over the cap of 20000"
    )


def test_homology_max_dim_enumerates_the_skeleton_only(tmp_path, capsys):
    src = tmp_path / "grid46.json"
    run(capsys, "build", "--family", "grid", "--m", "4", "--n", "6", "-o", str(src))
    code, out, err = run(capsys, "homology", str(src), "--complex", "matching", "--max-dim", "1")
    assert code == EXIT_OK
    assert out == "{}\n"  # the full complex (1,453,535 faces) gives the same
    assert "'faces_enumerated': 6220" in err


def test_verify_mismatch_exit_1(capsys, monkeypatch):
    # force a wrong prediction to confirm the failure path is wired up
    monkeypatch.setattr(cli, "predict", lambda m, n: WedgeDescriptor.sphere(9))
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "3")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["match"] is False


def test_verify_report_deterministic_modulo_wall_time(capsys):
    strip = lambda rep: {k: v for k, v in rep.items() if k != "wall_time"}
    r1 = verify_instance(2, 5, reduce=True).to_json_obj()
    r2 = verify_instance(2, 5, reduce=True).to_json_obj()
    assert strip(r1) == strip(r2)


def test_suite_json_and_exit(capsys):
    code, out, err = run(capsys, "suite", "--m", "1", "--n", "1..10")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"] == {"rows": 10, "pass": 10, "fail": 0, "skipped": 0}
    assert [r["n"] for r in doc["rows"]] == list(range(1, 11))
    assert "10 pass" in err


def test_suite_csv(capsys):
    code, out, _ = run(capsys, "suite", "--m", "2", "--n", "1..4", "--csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,n,status,match")
    assert len(lines) == 5
    assert all(",ok,True,True," in line for line in lines[1:])


def test_suite_m2_full_range_matches(capsys):
    code, out, _ = run(capsys, "suite", "--m", "2", "--n", "1..8", "--reduce")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"] == {"rows": 8, "pass": 8, "fail": 0, "skipped": 0}
    assert all(r["torsion_free"] for r in doc["rows"])


def test_homology_reduce_contractible_fast_path(tmp_path, capsys):
    g = tmp_path / "d13.json"
    assert main(["build", "--family", "delta", "--m", "1", "--n", "3", "-o", str(g)]) == EXIT_OK
    capsys.readouterr()
    code, out, err = run(capsys, "homology", str(g), "--reduce")
    assert code == EXIT_OK
    assert json.loads(out) == {}
    assert "'faces_enumerated': 0" in err


def test_suite_all_skipped_warns_but_passes(capsys):
    code, out, err = run(capsys, "suite", "--m", "2", "--n", "5..6", "--max-faces", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["skipped"] == 2
    assert "every instance was skipped" in err


def test_suite_range_spec_errors(capsys):
    code, _, err = run(capsys, "suite", "--m", "0", "--n", "1..3")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "suite", "--m", "x", "--n", "1..3")
    assert code == EXIT_USAGE


def test_steps_command(capsys):
    code, out, err = run(capsys, "steps", "--m", "2", "--n", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["all_passed"] is True
    names = [s["name"] for s in doc["steps"]]
    assert "x_split_certificate" in names and "y_split_certificate" in names
    assert "recursion_total" in names
    assert all("step " in line for line in err.strip().splitlines())


def test_steps_rejects_small_parameters(capsys):
    code, _, err = run(capsys, "steps", "--m", "1", "--n", "5")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "steps", "--m", "2", "--n", "4")
    assert code == EXIT_USAGE


def test_steps_failure_is_named(capsys, monkeypatch):
    def raise_cert_error(g, cert):
        from gridhomology import CertificateError

        raise CertificateError("sabotaged for testing")

    monkeypatch.setattr(cli, "check_split", raise_cert_error)
    code, out, err = run(capsys, "steps", "--m", "2", "--n", "5")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    failed = [s["name"] for s in doc["steps"] if not s["passed"]]
    assert "x_split_certificate" in failed
    assert "step check failed" in err


def test_workers_flag(capsys):
    code, out, _ = run(capsys, "suite", "--m", "1", "--n", "1..4", "--workers", "2")
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["pass"] == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gridhomology", "predict", "--m", "3", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"spheres": {"3": 1}}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == EXIT_USAGE  # missing subcommand
