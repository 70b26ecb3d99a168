"""Command-line behavior: outputs, schemas, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from heisgeo import catalog, flows, surface
from heisgeo._io import json_dumps
from heisgeo._stats import worst
from heisgeo.cli import main

HEIS_T = 0.38418745424597092  # sqrt(1 - 0.8^4)/2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_heisenberg(capsys, tmp_path):
    point = f"0.8,0,0,0,{HEIS_T:.17g}"
    code, out, err = run(
        capsys, "report", "--surface", "heisenberg-sphere", "--rho", "1",
        "--point", point, "--n", "2",
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["k"] == pytest.approx(0.8, abs=1e-9)
    assert data["l"] == pytest.approx(2.4, abs=1e-9)
    assert data["umbilic"] is True


def test_report_rounded_point_is_projected(capsys):
    # user-typed coordinates rounded to 4 digits still produce a report
    point = "0.8,0,0,0,0.3842"
    code, out, _ = run(
        capsys, "report", "--surface", "heisenberg-sphere", "--rho", "1",
        "--point", point,
    )
    assert code == 0
    data = json.loads(out)
    assert data["k"] == pytest.approx(0.8, abs=1e-3)


def test_report_far_point_rejected(capsys):
    code, _, err = run(
        capsys, "report", "--surface", "heisenberg-sphere", "--rho", "1",
        "--point", "0.8,0,0,0,0.9",
    )
    assert code == 2
    assert "error" in err


def test_report_fd_mode(capsys):
    point = f"0.8,0,0,0,{HEIS_T:.17g}"
    code, out, _ = run(
        capsys, "report", "--surface", "heisenberg-sphere", "--point", point,
        "--derivatives", "fd",
    )
    assert code == 0
    assert json.loads(out)["k"] == pytest.approx(0.8, abs=1e-5)


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in json.loads(out)]
    assert names == ["pansu", "heisenberg-sphere", "shifted-sphere",
                     "cylinder", "hyperplane"]
    code, out, _ = run(capsys, "catalog", "show", "pansu")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "pansu" and "k" in data["expected"]
    code, _, err = run(capsys, "catalog", "show", "moebius")
    assert code == 2


def test_phase_csv(tmp_path, capsys):
    out_file = tmp_path / "portrait.csv"
    code, _, _ = run(capsys, "phase", "--n", "2", "--c", "1", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "kind,s,alpha,beta"
    kinds = {ln.split(",")[0] for ln in lines[1:]}
    assert {"field", "upsilon", "stationary"} <= kinds
    assert sum(1 for k in kinds if k.startswith("orbit:")) == 10
    stat = [ln for ln in lines if ln.startswith("stationary")]
    assert float(stat[0].split(",")[3]) == 1.0
    assert float(stat[1].split(",")[3]) == -1.0 / 3.0


def test_phase_reproducible_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "phase", "--n", "2", "--c", "1", "--out", str(f1))
    run(capsys, "phase", "--n", "2", "--c", "1", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_phase_seed_file(tmp_path, capsys):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("alpha,beta\n0,1.5\n0.2,-0.5\n")
    out_file = tmp_path / "p.csv"
    code, _, _ = run(capsys, "phase", "--out", str(out_file), "--seeds", str(seeds))
    assert code == 0
    kinds = {ln.split(",")[0] for ln in out_file.read_text().splitlines()[1:]}
    assert "orbit:0" in kinds and "orbit:1" in kinds and "orbit:2" not in kinds


@pytest.mark.parametrize("text", ["alpha,beta\n", "alpha,beta\n\n", ""])
def test_phase_seed_file_without_seeds_is_a_usage_error(tmp_path, capsys, text):
    """A seed file with no seed rows is bad input, not the default seeds."""
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(text)
    code, out, err = run(capsys, "phase", "--seeds", str(seeds))
    assert code == 2 and out == ""
    assert err == f"error: no seed rows in {seeds}\n"


@pytest.mark.parametrize("args", [("--c", "0"), ("--n", "1")])
def test_phase_bad_parameters(capsys, args):
    code, _, err = run(capsys, "phase", *args)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_phase_seed_on_separatrix(tmp_path, capsys):
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("alpha,beta\n0,1.5\n0.3,0\n")
    code, _, err = run(capsys, "phase", "--seeds", str(seeds),
                       "--out", str(tmp_path / "p.csv"))
    assert code == 2
    assert err.startswith("error: OnSeparatrix: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("row", ["nan,1", "0,inf", "-inf,0.5"])
def test_phase_non_finite_seed_is_a_usage_error(tmp_path, capsys, row):
    """A NaN or infinite seed is bad input, not a blow-up of its orbit."""
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(f"alpha,beta\n0,1.5\n{row}\n")
    code, out, err = run(capsys, "phase", "--seeds", str(seeds))
    assert code == 2 and out == ""
    assert err == "error: ValueError: seed must be finite\n"


@pytest.mark.parametrize("argv", [
    ("report", "--surface", "pansu", "--n", "1", "--point", "0,0,0"),
    ("report", "--surface", "pansu", "--lam", "-1", "--point", "0,0,0,0,0"),
    ("report", "--surface", "pansu", "--point", "nan,0,0,0,0"),
    ("identities", "--surface", "cylinder", "--c", "-1"),
    ("catalog", "list", "--n", "1"),
    ("geodesic", "--lam", "1", "--start", "nan,0,0,0,0", "--velocity", "1,0,0,0"),
    ("geodesic", "--lam", "1", "--start", "0,0,0,0,0", "--velocity", "nan,0,0,0"),
    ("geodesic", "--lam", "nan", "--start", "0,0,0,0,0", "--velocity", "1,0,0,0"),
    ("geodesic", "--lam", "1", "--start", "0,0,0,0,0", "--velocity", "1,0,0,0",
     "--smax", "nan"),
    ("identities", "--surface", "pansu", "--lam", "nan"),
    ("identities", "--surface", "shifted-sphere", "--rho0", "nan"),
    ("phase", "--c", "nan"),
    ("phase", "--c", "inf"),
    ("identities", "--surface", "pansu", "--step", "0"),
    ("catalog", "list", "--n", "0"),
    ("catalog", "list", "--n", "-1"),
    # a curvature so large that the first step underflows
    ("geodesic", "--lam", "1e16", "--start", "0,0,0,0,0", "--velocity", "1,0,0,0",
     "--smax", "1"),
])
def test_bad_parameter_values_are_usage_errors(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert time.perf_counter() - start < 1.0


def test_unknown_surface_is_a_usage_error(capsys):
    code, out, err = run(capsys, "report", "--surface", "torus", "--point", "0,0,0,0,0")
    assert code == 2 and out == "" and "invalid choice: 'torus'" in err


def test_geodesic_csv(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "geodesic", "--lam", "1", "--start", "1,0,0,0,0",
        "--velocity", "0,0,1,0", "--smax", "1.5", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "s,x1,x2,y1,y2,t,v1,v2,v3,v4"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.5, abs=1e-12)
    # unit speed preserved
    assert sum(v * v for v in last[6:]) == pytest.approx(1.0, abs=1e-9)


def test_geodesic_bad_velocity(capsys):
    code, _, err = run(
        capsys, "geodesic", "--lam", "1", "--start", "1,0,0,0,0",
        "--velocity", "0,0,0,0",
    )
    assert code == 2


def test_identities_json(tmp_path, capsys):
    out_file = tmp_path / "res.json"
    code, _, _ = run(
        capsys, "identities", "--surface", "cylinder", "--c", "2",
        "--points", "2", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["surface"] == "cylinder"
    assert data["max_residuals"]["en_k"] <= 1e-8
    assert len(data["points"]) == 2


def test_verify_run_filtered(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "run", "--only", "prop4.1", "--seed", "42",
        "--json", str(out_file),
    )
    assert code == 0
    assert "pass prop4.1-detU" in out
    data = json.loads(out_file.read_text())
    assert data["passed"] is True


def test_verify_only_lemma_filter(capsys):
    code, out, _ = run(capsys, "verify", "run", "--only", "lemma6.1-symmetry")
    assert code == 0
    assert all(
        ln.split()[1].startswith("lemma6.1") for ln in out.splitlines()[:-1]
    )


def test_verify_timings_file_stays_out_of_the_report(capsys, tmp_path):
    """``--timings`` writes each claim's wall seconds to its own file; the
    ``--json`` report is byte-identical with and without it."""
    plain, timed, timings = (tmp_path / name for name in ("a.json", "b.json", "t.json"))
    code_a, out_a, _ = run(capsys, "verify", "run", "--only", "eq5", "--json", str(plain))
    code_b, out_b, _ = run(capsys, "verify", "run", "--only", "eq5", "--json", str(timed),
                           "--timings", str(timings))
    assert code_a == code_b == 0 and out_a == out_b
    assert plain.read_bytes() == timed.read_bytes()
    ran = {c["claim_id"] for c in json.loads(plain.read_text())["claims"]}
    seconds = json.loads(timings.read_text())
    assert set(seconds) == ran == {"eq5.4-alpha-axis", "eq5.5-stationary"}
    assert all(isinstance(v, float) and v >= 0.0 for v in seconds.values())


def test_verify_only_matching_no_claim_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "run", "--only", "nonexistent")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("points", ["0", "-1"])
def test_identities_needs_a_positive_point_count(capsys, points):
    """A check of no points would pass vacuously, so it is a usage error."""
    code, out, err = run(capsys, "identities", "--surface", "pansu", "--points", points)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_usage_errors(capsys):
    assert run(capsys, "report", "--surface", "pansu")[0] == 2  # missing point
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "report", "--surface", "pansu", "--point", "1,2")[0] == 2


def test_output_directory_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HEISGEO_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "catalog", "list", "--out", "entries.json")
    assert code == 0
    assert (tmp_path / "entries.json").exists()


def test_identities_max_residuals_keep_nan(tmp_path, capsys, monkeypatch):
    """A NaN residual after a finite one shows in ``max_residuals``."""
    original = flows.identity_check_many

    def second_nan(*args, **kwargs):
        out = original(*args, **kwargs)
        out[1].e2n_l = float("nan")
        return out

    monkeypatch.setattr(flows, "identity_check_many", second_nan)
    out_file = tmp_path / "res.json"
    code, _, _ = run(capsys, "identities", "--surface", "cylinder", "--c", "2",
                     "--points", "3", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["max_residuals"]["e2n_l"] is None
    assert data["max_residuals"]["en_k"] is not None


def _cylinder_points():
    """The points ``identities --surface cylinder --c 2 --points 3`` samples."""
    return catalog.cylinder(2.0, 2).sample(np.random.default_rng(42), 3)


def _fail_second_cylinder_point(monkeypatch, exc):
    """Patch ``flows.identity_check_many`` to raise ``exc`` on every batch
    that holds the second of ``_cylinder_points``."""
    original = flows.identity_check_many
    second = _cylinder_points()[1].coords

    def fail_second(s, points, *args, **kwargs):
        if any(np.array_equal(p.coords, second) for p in points):
            raise exc
        return original(s, points, *args, **kwargs)

    monkeypatch.setattr(flows, "identity_check_many", fail_second)


@pytest.mark.parametrize("exc, code, skipped", [
    (surface.NonSymmetric("Hessian asymmetry 1"), 2, None),
    (surface.PivotDegenerate("forced pivot 0 degenerated"), 0, 1),
], ids=["NonSymmetric", "PivotDegenerate"])
def test_identities_skips_only_degenerate_samples(capsys, monkeypatch, exc, code, skipped):
    """A failed frame or projection skips its sample; any other geometry error,
    such as the asymmetry that signals a derivative bug, is one ``error:`` line
    with exit 2."""
    _fail_second_cylinder_point(monkeypatch, exc)
    got, out, err = run(capsys, "identities", "--surface", "cylinder", "--c", "2",
                        "--points", "3")
    assert got == code
    if skipped is None:
        assert out == "" and err.startswith("error: NonSymmetric")
        assert len(err.splitlines()) == 1
    else:
        data = json.loads(out)
        assert data["skipped"] == skipped and len(data["points"]) == 2


def test_identities_with_a_skip_match_per_point_checks(capsys, monkeypatch):
    """With its second point resampled, ``identities`` writes byte for byte
    the rows of per-point ``identity_check`` calls on the other two."""
    s = catalog.cylinder(2.0, 2).surface
    rows = [{"point": list(p.coords), "residuals": flows.identity_check(s, p).as_dict()}
            for i, p in enumerate(_cylinder_points()) if i != 1]
    expected = json_dumps({
        "surface": "cylinder", "params": {"c": 2.0, "n": 2}, "step": 1e-4, "seed": 42,
        "skipped": 1,
        "max_residuals": {key: worst([r["residuals"][key] for r in rows])
                          for key in rows[0]["residuals"]},
        "points": rows,
    }) + "\n"
    _fail_second_cylinder_point(monkeypatch, surface.PivotDegenerate("forced"))
    code, out, _ = run(capsys, "identities", "--surface", "cylinder", "--c", "2",
                       "--points", "3")
    assert code == 0 and out == expected


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-m", "heisgeo", "verify", "run", "--only", "eq5.4",
                           "--seed", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all claims passed" in done.stdout
