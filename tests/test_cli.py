import json

import numpy as np
import pytest

from kleinian import cli
from kleinian import groups, patterson


def run(argv):
    return cli.main(argv)


def read_header(path):
    lines = path.read_text().splitlines()
    return [l for l in lines if l.startswith("#")]


# ---------------------------------------------------------------------------
# Subcommands produce their artifacts.


def test_census_writes_csv_with_header(tmp_path, capsys):
    rc = run(["census", "--config", "schottky", "--max-word-length", "4",
              "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries=161" in out
    header = read_header(tmp_path / "census.csv")
    assert any(h.startswith("# tool_version=") for h in header)
    assert any(h.startswith("# config_hash=") for h in header)
    assert any(h.startswith("# seed=") for h in header)


def test_exponent_parabolic(tmp_path, capsys):
    rc = run(["exponent", "--config", "parabolic", "--max-radius", "18",
              "--out", str(tmp_path)])
    assert rc == 0
    est = json.loads((tmp_path / "estimate.json").read_text())
    assert 0.45 <= est["point_estimate"] <= 0.55
    assert (tmp_path / "report.csv").exists()
    assert "point_estimate=" in capsys.readouterr().out


def test_exponent_window_flag(tmp_path):
    rc = run(["exponent", "--config", "lattice", "--max-radius", "12",
              "--window", "6:12", "--out", str(tmp_path)])
    assert rc == 0
    est = json.loads((tmp_path / "estimate.json").read_text())
    assert 0.9 <= est["point_estimate"] <= 1.1
    assert est["window"][0] >= 6.0


def test_separation_certificate(tmp_path, capsys):
    rc = run(["separation", "--config", "schottky-separation",
              "--max-word-length", "200", "--out", str(tmp_path)])
    assert rc == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["s0"] == pytest.approx(0.31, abs=1e-9)
    assert cert["product_value"] > 1.0
    assert "s0=0.31" in capsys.readouterr().out


@pytest.mark.parametrize("theta", [0.7, -1.2])
def test_separation_on_a_rotated_cyclic_subgroup(tmp_path, capsys, theta):
    # The powers of the rotated generator lose their determinant, or map i
    # below the real axis, before word length 200; the walk ends there.  The
    # rotation about i keeps every orbit distance from i, so s0 is that of
    # the builtin subgroup.
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    k = cli.Isometry(c, s, -s, c)
    a, b = k.inverse() @ cli._A @ k, k.inverse() @ cli._B @ k
    doc = {"group": groups.spec_to_json_dict(groups.cyclic_spec(a)),
           "witness": groups._mat_to_json(b)}
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(doc))
    rc = run(["separation", "--config", str(path), "--max-word-length", "200",
              "--out", str(tmp_path)])
    assert rc == 0
    assert "s0=0.310000" in capsys.readouterr().out


def test_patterson_artifacts_and_render(tmp_path, capsys):
    rc = run(["patterson", "--config", "schottky", "--max-word-length", "7",
              "--render", "--audit", "conformal", "--out", str(tmp_path)])
    assert rc == 0
    measures = sorted(tmp_path.glob("measure_s*.csv"))
    histograms = sorted(tmp_path.glob("histogram_s*.csv"))
    assert len(measures) == 3 and len(histograms) == 3
    render = (tmp_path / "render.ppm").read_bytes()
    assert render.startswith(b"P6\n1024 1024\n255\n")
    out = capsys.readouterr().out
    assert "conformal_max_deviation=" in out


def test_patterson_shadow_and_equivariance_audits(tmp_path, capsys):
    rc = run(["patterson", "--config", "schottky", "--max-word-length", "7",
              "--audit", "shadow", "--out", str(tmp_path)])
    assert rc == 0
    assert "shadow_min_ratio=" in capsys.readouterr().out
    rc = run(["patterson", "--config", "schottky", "--max-word-length", "7",
              "--audit", "equivariance", "--out", str(tmp_path)])
    assert rc == 0
    assert "equivariance_leakage=" in capsys.readouterr().out


def test_patterson_equivariance_on_conjugated_free_group(tmp_path, capsys):
    doc = {"kind": "conjugated", "conjugator": [["1", "0.5"], ["0", "1"]],
           "inner": groups.spec_to_json_dict(groups.schottky_spec(cli._A, cli._B))}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    rc = run(["patterson", "--config", str(path), "--max-word-length", "8",
              "--audit", "equivariance", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    key = "equivariance_max_discrepancy="
    disc = [float(l[len(key):]) for l in out.splitlines() if l.startswith(key)]
    assert len(disc) == 1 and disc[0] <= 1e-12


def test_outputs_reproducible_across_runs(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert run(["census", "--config", "schottky", "--max-word-length", "5",
                    "--out", str(d)]) == 0
        assert run(["patterson", "--config", "schottky", "--max-word-length",
                    "7", "--render", "--out", str(d)]) == 0
    assert (d1 / "census.csv").read_bytes() == (d2 / "census.csv").read_bytes()
    assert (d1 / "render.ppm").read_bytes() == (d2 / "render.ppm").read_bytes()
    for f in d1.glob("measure_s*.csv"):
        assert f.read_bytes() == (d2 / f.name).read_bytes()


def test_config_from_json_file(tmp_path):
    doc = groups.spec_to_json_dict(
        groups.cyclic_spec(cli.Isometry(1.0, 1.0, 0.0, 1.0)))
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    rc = run(["census", "--config", str(path), "--max-word-length", "10",
              "--out", str(tmp_path)])
    assert rc == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# Exit codes.


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "schottky",\n  "generators": [}\n')
    rc = run(["census", "--config", str(bad), "--max-word-length", "3",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_config_file_exit_code(tmp_path, capsys):
    rc = run(["census", "--config", str(tmp_path / "nope.json"),
              "--max-word-length", "3", "--out", str(tmp_path)])
    assert rc == cli.EXIT_PARSE


def test_budget_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise groups.BudgetExceeded("census exceeds budget")
    monkeypatch.setattr(cli.groups, "enumerate_orbit", explode)
    rc = run(["census", "--config", "schottky", "--max-word-length", "3",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_BUDGET


def test_overflow_exit_code(tmp_path, capsys):
    rc = run(["census", "--config", "lattice", "--max-radius", "25",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_OVERFLOW
    assert "overflow" in capsys.readouterr().err


def test_insufficient_data_exit_code(tmp_path, capsys):
    rc = run(["exponent", "--config", "cyclic-hyperbolic", "--max-radius", "3",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_INSUFFICIENT


def test_no_certificate_exit_code(tmp_path, capsys):
    rc = run(["separation", "--config", "schottky-separation",
              "--max-word-length", "50", "--s-grid", "2.0:3.0:0.5",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_CERTIFICATE


def test_degenerate_normalizer_exit_code(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise patterson.DegenerateNormalizer("normalizer underflows")
    monkeypatch.setattr(cli.patterson, "orbital_measure", explode)
    rc = run(["patterson", "--config", "schottky", "--max-word-length", "7",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_DEGENERATE


_A = [["3.0", "0.0"], ["0.0", "0.3333333333333333"]]
_B = [["1.6666666666666667", "1.3333333333333333"],
      ["1.3333333333333333", "1.6666666666666667"]]


@pytest.mark.parametrize("argv, config", [
    (["exponent", "--config", "parabolic", "--max-radius", "nan"], None),
    (["exponent", "--config", "parabolic", "--max-radius", "inf"], None),
    (["exponent", "--config", "parabolic", "--max-radius", "-1"], None),
    (["census", "--config", "schottky", "--max-word-length", "-5"], None),
    (["census", "--config", "schottky"], None),
    (["census", "--max-word-length", "3"], [_A, _B]),
    (["census", "--max-radius", "5"],
     {"kind": "nested_subgroup", "generators": [_A, _B], "depth": -3}),
    (["census", "--max-word-length", "3"],
     {"kind": "schottky", "generators": [[["1", "1"], ["0", "1"]], _B]}),
    (["census", "--max-word-length", "3"],
     {"kind": "schottky", "generators": [_A, [["2", "0"], ["0", "0.5"]]]}),
    (["census", "--config", "lattice", "--max-word-length", "3"], None),
    (["exponent", "--config", "lattice", "--max-word-length", "3"], None),
    (["census", "--max-word-length", "3"],
     {"kind": "conjugated", "conjugator": [["1", "0.5"], ["0", "1"]],
      "inner": {"kind": "modular_lattice"}}),
    (["patterson", "--config", "lattice", "--max-radius", "6",
      "--audit", "equivariance"], None),
    (["patterson", "--max-radius", "6", "--audit", "equivariance"],
     {"kind": "conjugated", "conjugator": [["1", "0.5"], ["0", "1"]],
      "inner": {"kind": "modular_lattice"}}),
    (["census", "--max-word-length", "5"], {"kind": "conjugated"}),
    (["separation", "--max-word-length", "3"],
     {"group": {"kind": "cyclic_hyperbolic", "generators": [_A]},
      "witness": [1, 2, 3]}),
], ids=["radius-nan", "radius-inf", "radius-negative", "word-length-negative",
        "no-limit", "top-level-array", "nested-negative-depth",
        "schottky-parabolic-generator", "schottky-uncertifiable",
        "lattice-census-word-length-only", "lattice-exponent-word-length-only",
        "conjugated-lattice-word-length-only", "lattice-equivariance-audit",
        "conjugated-lattice-equivariance-audit", "conjugated-without-inner",
        "separation-witness-not-2x2"])
def test_invalid_input_exit_code(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "group.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    rc = run(argv + ["--out", str(tmp_path)])
    assert rc == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Verification suite.


def test_check_filter_sequences(tmp_path, capsys):
    rc = run(["check", "--filter", "sequences", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS sequence-exponent-agreement" in out
    doc = json.loads((tmp_path / "check.json").read_text())
    assert all(r["pass"] for r in doc["results"])


def test_check_unknown_filter(tmp_path, capsys):
    rc = run(["check", "--filter", "bogus", "--out", str(tmp_path)])
    assert rc == cli.EXIT_PARSE


def test_check_detects_injected_distance_bug(tmp_path, capsys, monkeypatch):
    # Inflate every computed distance by 20%: the measured parabolic
    # exponent drops to ~0.42 and the counting suite must go red.  The
    # sparse cyclic-hyperbolic census then starves its estimator, which
    # must surface as a failed suite, not a crashed run.
    true_distance = groups.distance

    def warped(x, y):
        return 1.2 * true_distance(x, y)

    monkeypatch.setattr(cli.groups, "distance", warped)
    rc = run(["check", "--filter", "counting", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL parabolic-exponent" in out
