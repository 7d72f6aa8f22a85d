import io
import json
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from kleinian import cli
from kleinian import counting, groups, patterson
from kleinian.hyperbolic import ORIGIN


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


@pytest.mark.parametrize("command", ["exponent", "patterson"])
def test_counting_grid_ends_inside_the_completeness_radius(tmp_path, command):
    # The grid's rounding slack reached radius 18 here, whose annulus [17, 19]
    # ends past the completeness radius: an uncaught IncompleteCensus, exit 1.
    rc = run([command, "--config", "parabolic", "--max-radius", "18.9999999999999",
              "--out", str(tmp_path)])
    assert rc == 0
    if command == "exponent":
        assert json.loads((tmp_path / "estimate.json").read_text())["window"][1] == 17.5


@pytest.mark.parametrize("argv", [["--config", "lattice", "--max-radius", "9"],
                                  ["--config", "schottky", "--max-word-length", "8"]],
                         ids=["lattice-R9", "schottky-L8"])
def test_exponent_never_orders_the_census_rows(tmp_path, monkeypatch, argv):
    # Counting reads only the distances, so the rows of an exponent's census
    # are never put in distance order, and lattice word lengths never computed.
    assert run(["exponent", *argv, "--out", str(tmp_path / "plain")]) == 0

    def refuse(*args):
        raise AssertionError("the census rows were ordered")

    for name in ("_st_word_lengths", "_rows_by_distance", "_lattice_rows",
                 "_conjugated_rows"):
        monkeypatch.setattr(groups, name, refuse)
    for spec in (groups.modular_lattice_spec(), groups.cyclic_spec(cli._A)):
        with pytest.raises(AssertionError, match="ordered"):
            groups.enumerate_orbit(spec, max_radius=2.0).mats
    assert run(["exponent", *argv, "--out", str(tmp_path / "guarded")]) == 0
    for name in ("report.csv", "estimate.json"):
        assert ((tmp_path / "guarded" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())


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


@pytest.mark.parametrize("depth, theta, radius", [(8, 0.0, "20"), (4, -0.5, "22")],
                         ids=["depth-8-R20", "rotated-depth-4-R22"])
def test_nested_exponent_ends_with_the_builtin_depth_4_estimate(tmp_path, capsys,
                                                                depth, theta, radius):
    # Both groups have the orbit distances of the depth-4 subgroup of the
    # builtin pair (the rotation k fixes i, and the deeper letters lie past
    # R20).  Read from image points, these words lost the imaginary part
    # that their subtree bound needs, and both runs exceeded the budget.
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    k = cli.Isometry(c, s, -s, c)
    estimates = []
    for name, d, g in (("nested", depth, k), ("builtin", 4, cli.Isometry.identity())):
        spec = groups.nested_subgroup_spec(g.inverse() @ cli._A @ g,
                                           g.inverse() @ cli._B @ g, d)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(groups.spec_to_json_dict(spec)))
        assert run(["exponent", "--config", str(path), "--max-radius", radius,
                    "--out", str(tmp_path / name)]) == 0
        estimates.append(json.loads((tmp_path / name / "estimate.json").read_text()))
    assert estimates[0]["point_estimate"] == estimates[1]["point_estimate"]


def _nested_config(path, depth, theta=None):
    """Write the nested subgroup of the builtin pair, rotated about i by
    theta if given, as a config at path."""
    a, b = cli._A, cli._B
    if theta is not None:
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        k = cli.Isometry(c, s, -s, c)
        a, b = k.inverse() @ a @ k, k.inverse() @ b @ k
    path.write_text(json.dumps(groups.spec_to_json_dict(groups.nested_subgroup_spec(a, b, depth))))
    return str(path)


@pytest.mark.parametrize("depth, code", [(1, 0), (4, 0), (8, 0), (9, 0), (11, 0), (12, 0),
                                         (20, cli.EXIT_PARSE)])
def test_rotated_nested_config_exits_as_the_builtin_one(tmp_path, capsys, depth, code):
    # Conjugate configs end alike.  With letters composed in the rotated
    # frame, the rotation by 0.7 exited 2 ("no certified interval system")
    # at depths 1, 4 and 8, 2 ("generator is elliptic") at depth 9 and 4
    # ("positive determinant, got 0.0") at depths 11 and 12.  Depth 20 has
    # no certificate in any frame.
    codes = [run(["exponent", "--config", _nested_config(tmp_path / f"{name}.json", depth, theta),
                  "--max-radius", "20", "--out", str(tmp_path / name)])
             for name, theta in (("builtin", None), ("rotated", 0.7))]
    assert codes == [code, code]


def test_rotated_nested_equivariance_audit_matches_the_builtin(tmp_path, capsys):
    # Depth 2 keeps the L6 audit quick; with letters composed in its own
    # frame the rotated pair exited 2.
    lines = []
    for name, theta in (("builtin", None), ("rotated", 0.7)):
        config = _nested_config(tmp_path / f"{name}.json", 2, theta)
        assert run(["patterson", "--config", config, "--max-word-length", "6",
                    "--audit", "equivariance", "--out", str(tmp_path / name)]) == 0
        lines.append(dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                          if line.startswith("equivariance_")))
    builtin, rotated = lines
    assert float(rotated["equivariance_max_discrepancy"]) <= 1e-12
    assert rotated["equivariance_leakage"] == builtin["equivariance_leakage"]


@pytest.mark.parametrize("theta", [0.7, -1.2])
def test_separation_on_a_rotated_cyclic_subgroup(tmp_path, capsys, theta):
    # The entries of the rotated generator's powers pass 1e8 long before
    # word length 200, and every power is still formed in closed form.  The
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


def test_rotated_cyclic_census_writes_every_power(tmp_path, capsys):
    # A walk over the powers of the rotated generator lost them from
    # |n| = 18 on (37 rows); the closed form writes all 401.
    c, s = np.cos(0.35), np.sin(0.35)
    k = cli.Isometry(c, s, -s, c)
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(groups.spec_to_json_dict(
        groups.cyclic_spec(k.inverse() @ cli._A @ k))))
    rc = run(["census", "--config", str(path), "--max-word-length", "200",
              "--out", str(tmp_path)])
    assert rc == 0
    rows = [l for l in (tmp_path / "census.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "distance,word_length,a,b,c,d"
    assert len(rows) - 1 == 401
    assert "entries=401" in capsys.readouterr().out


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


def test_conjugator_moving_the_basepoint_into_a_letter_half_plane(tmp_path, capsys):
    # diag(0.1, 10) sends i to 0.01i, inside the half-plane of a^-1's arc,
    # so the inner census is the Schottky one at x = y = 0.01i.
    path = tmp_path / "group.json"
    path.write_text(json.dumps(groups.spec_to_json_dict(groups.conjugate(
        groups.schottky_spec(cli._A, cli._B), cli.Isometry(0.1, 0.0, 0.0, 10.0)))))
    rc = run(["census", "--config", str(path), "--max-radius", "8", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "census.csv").read_text().splitlines()[4:]
    spec = groups.spec_from_json(path.read_text())  # the floats the CLI reads
    c = spec.conjugator
    p = c.apply(ORIGIN)
    inner = groups.enumerate_orbit(spec.inner, p, p, max_radius=8.0)
    assert len(rows) == len(inner) > 1
    c_inv, c_mat = (np.reshape(g.matrix(), (2, 2)) for g in (c.inverse(), c))
    for row, d, n, m in zip(rows, inner.distances, inner.word_lengths, inner.mats):
        g = (c_inv @ m @ c_mat).ravel()
        assert row == "%.12g,%d,%.12g,%.12g,%.12g,%.12g" % (d, n, *g)
    rc = run(["exponent", "--config", str(path), "--max-radius", "14", "--out", str(tmp_path)])
    assert rc == 0
    estimate = json.loads((tmp_path / "estimate.json").read_text())
    assert abs(estimate["point_estimate"] - 0.657) < 0.01


def test_conformal_sweep_maps_the_census_atoms_once(monkeypatch):
    census = groups.enumerate_orbit(groups.schottky_spec(cli._A, cli._B), max_word_length=6)
    calls = []
    apply_many = groups.apply_many

    def spy(mats, p):
        calls.append(mats)
        return apply_many(mats, p)

    monkeypatch.setattr(groups, "apply_many", spy)
    mus = [patterson.orbital_measure(census, s) for s in (0.8, 0.7, 0.9)]
    worst = cli._conformal_worst(census, mus[0], np.random.default_rng(11))
    aud = patterson.equivariance_audit(census, 1, 0.8)
    list(patterson.measure_csv_chunks(mus))
    assert len(calls) == 1 and calls[0] is census.mats
    assert worst <= 1e-12 and aud.max_discrepancy <= 1e-12


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


def test_parabolic_ball_beyond_budget_exits_before_walking(tmp_path, capsys):
    # About 1e13 powers of the parabolic generator lie within radius 60;
    # walking them one at a time up to the 1e7 budget takes minutes.
    t0 = time.perf_counter()
    rc = run(["census", "--config", "parabolic", "--max-radius", "60",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_BUDGET
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("argv", [
    ["census", "--config", "cyclic-hyperbolic", "--max-radius", "1e8"],
    ["census", "--config", "cyclic-hyperbolic", "--max-word-length", "10000000"],
    ["separation", "--config", "schottky-separation", "--max-word-length", "10000000"],
], ids=["hyperbolic-R1e8", "hyperbolic-L1e7", "separation-L1e7"])
def test_cyclic_limits_past_the_radius_cap_succeed(tmp_path, argv):
    # The ball is solved up to the radius cap and its powers formed only
    # while they stay in double precision, so neither overflow nor the
    # budget ends these runs.
    assert run([*argv, "--out", str(tmp_path)]) == 0


def test_overflow_exit_code(tmp_path, capsys):
    rc = run(["census", "--config", "lattice", "--max-radius", "25",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_OVERFLOW
    assert "overflow" in capsys.readouterr().err


def test_insufficient_data_exit_code(tmp_path, capsys):
    rc = run(["exponent", "--config", "cyclic-hyperbolic", "--max-radius", "3",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_INSUFFICIENT


@pytest.mark.parametrize("command", ["exponent", "patterson"])
def test_census_too_small_for_any_counting_radius_exit_code(tmp_path, capsys, command):
    # The identity alone is complete only to radius 0: the counting grid
    # holds no radius at all.
    rc = run([command, "--config", "schottky", "--max-word-length", "0",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_INSUFFICIENT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


# Flag values the parser must reject before it enumerates anything.
_BAD_FLAGS = {
    "patterson-s-grid-nan": ["patterson", "--s-grid", "nan:1:0.1"],
    "patterson-s-grid-inf": ["patterson", "--s-grid", "0:inf:0.1"],
    "patterson-s-grid-too-fine": ["patterson", "--s-grid", "0:1:1e-300"],
    "separation-s-grid-nan": ["separation", "--s-grid", "nan:1:0.1"],
    "separation-s-grid-inf": ["separation", "--s-grid", "0:inf:0.1"],
    "separation-s-grid-step-zero": ["separation", "--s-grid", "0:1:0"],
    "shadow-r-negative": ["patterson", "--audit", "shadow", "--r", "-1"],
    "shadow-r-nan": ["patterson", "--audit", "shadow", "--r", "nan"],
    "shadow-r-inf": ["patterson", "--audit", "shadow", "--r", "inf"],
    # Five values that all write measure_s0.7000.csv.
    "patterson-s-grid-shared-tag": ["patterson", "--s-grid", "0.70:0.70004:0.00001"],
    "exponent-window-reversed": ["exponent", "--window", "12:6"],
    "exponent-window-nan": ["exponent", "--window", "nan:5"],
    "patterson-s-grid-two-fields": ["patterson", "--s-grid", "0:1"],
    "exponent-window-one-field": ["exponent", "--window", "5"],
}


def _bad_flag_argv(case):
    command, *flags = _BAD_FLAGS[case]
    config = "schottky-separation" if command == "separation" else "schottky"
    return [command, "--config", config, "--max-word-length", "7", *flags]


_A = [["3.0", "0.0"], ["0.0", "0.3333333333333333"]]
_B = [["1.6666666666666667", "1.3333333333333333"],
      ["1.3333333333333333", "1.6666666666666667"]]
_ID = [["1", "0"], ["0", "1"]]
_P = [["1", "1"], ["0", "1"]]
# The rotation about i by 0.5, an elliptic element.
_ROT = [[str(np.cos(0.25)), str(np.sin(0.25))], [str(-np.sin(0.25)), str(np.cos(0.25))]]
# The rotation about i by pi, of order 2.
_R_PI = [["0", "-1"], ["1", "0"]]
_SINGULAR = [["1", "1"], ["1", "1"]]


def _conjugation_chain(n):
    """The builtin Schottky pair conjugated n times by the identity."""
    doc = {"kind": "schottky", "generators": [_A, _B]}
    for _ in range(n):
        doc = {"kind": "conjugated", "conjugator": _ID, "inner": doc}
    return doc


@pytest.mark.parametrize("argv, config, code", [
    (["exponent", "--config", "parabolic", "--max-radius", "nan"], None, cli.EXIT_PARSE),
    (["exponent", "--config", "parabolic", "--max-radius", "inf"], None, cli.EXIT_PARSE),
    (["exponent", "--config", "parabolic", "--max-radius", "-1"], None, cli.EXIT_PARSE),
    (["census", "--config", "schottky", "--max-word-length", "-5"], None, cli.EXIT_PARSE),
    (["census", "--config", "schottky"], None, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"], [_A, _B], cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "nested_subgroup", "generators": [_A, _B], "depth": -3}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"],
     {"kind": "schottky", "generators": [[["1", "1"], ["0", "1"]], _B]}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"],
     {"kind": "schottky", "generators": [_A, [["2", "0"], ["0", "0.5"]]]}, cli.EXIT_PARSE),
    # alpha of order 2: the nested generators hold beta twice, so no
    # ping-pong certificate exists and the words are not distinct elements.
    (["census", "--max-word-length", "3"],
     {"kind": "nested_subgroup", "generators": [_R_PI, _B], "depth": 2}, cli.EXIT_PARSE),
    (["census", "--config", "lattice", "--max-word-length", "3"], None, cli.EXIT_PARSE),
    (["exponent", "--config", "lattice", "--max-word-length", "3"], None, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"],
     {"kind": "conjugated", "conjugator": [["1", "0.5"], ["0", "1"]],
      "inner": {"kind": "modular_lattice"}}, cli.EXIT_PARSE),
    (["patterson", "--config", "lattice", "--max-radius", "6",
      "--audit", "equivariance"], None, cli.EXIT_PARSE),
    (["patterson", "--max-radius", "6", "--audit", "equivariance"],
     {"kind": "conjugated", "conjugator": [["1", "0.5"], ["0", "1"]],
      "inner": {"kind": "modular_lattice"}}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "5"], {"kind": "conjugated"}, cli.EXIT_PARSE),
    (["separation", "--max-word-length", "3"],
     {"group": {"kind": "cyclic_hyperbolic", "generators": [_A]},
      "witness": [1, 2, 3]}, cli.EXIT_PARSE),
    (["separation", "--max-word-length", "3"],
     {"group": {"kind": "cyclic_hyperbolic", "generators": [_A]},
      "witness": _SINGULAR}, cli.EXIT_PARSE),
    (["separation", "--max-word-length", "3"],
     {"group": {"kind": "cyclic_hyperbolic", "generators": [_A]}}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"],
     {"kind": "schottky", "generators": [_SINGULAR, _B]}, cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "cyclic_hyperbolic", "generators": [[["0", "1"], ["1", "0"]]]}, cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "cyclic_hyperbolic", "generators": []}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"], {"kind": "schottky", "generators": []}, cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "cyclic_hyperbolic", "generators": [_ROT]}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "5"],
     {"kind": "cyclic_hyperbolic", "generators": [_ROT]}, cli.EXIT_PARSE),
    (["census", "--max-word-length", "3"],
     {"kind": "cyclic_parabolic", "generators": [_ID]}, cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "cyclic_parabolic", "generators": [_A]}, cli.EXIT_PARSE),
    (["census", "--max-radius", "5"],
     {"kind": "nested_subgroup", "generators": [_A, _B], "depth": 2.5}, cli.EXIT_PARSE),
    # With a parabolic alpha the nested letters never overflow; their number
    # alone exceeds the enumeration budget.
    (["census", "--max-radius", "5"],
     {"kind": "nested_subgroup", "generators": [_P, _B], "depth": 10 ** 8}, cli.EXIT_BUDGET),
    (["census", "--max-word-length", "2"], _conjugation_chain(600), cli.EXIT_PARSE),
    # Raw text: a kind nested deeper than the JSON decoder recurses.
    (["census", "--max-word-length", "2"],
     '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}", cli.EXIT_PARSE),
    *[(_bad_flag_argv(case), None, cli.EXIT_PARSE) for case in _BAD_FLAGS],
], ids=["radius-nan", "radius-inf", "radius-negative", "word-length-negative",
        "no-limit", "top-level-array", "nested-negative-depth",
        "schottky-parabolic-generator", "schottky-uncertifiable", "nested-uncertifiable",
        "lattice-census-word-length-only", "lattice-exponent-word-length-only",
        "conjugated-lattice-word-length-only", "lattice-equivariance-audit",
        "conjugated-lattice-equivariance-audit", "conjugated-without-inner",
        "separation-witness-not-2x2", "separation-witness-singular",
        "separation-without-witness", "schottky-singular-generator",
        "cyclic-negative-determinant", "cyclic-without-generator",
        "schottky-without-generators", "cyclic-elliptic-radius",
        "cyclic-elliptic-word-length", "parabolic-identity",
        "parabolic-on-hyperbolic-generator", "nested-fractional-depth",
        "nested-letters-beyond-budget", "conjugation-chain-600", "kind-nested-100000",
        *_BAD_FLAGS])
def test_invalid_input_exit_code(tmp_path, capsys, argv, config, code):
    if config is not None:
        path = tmp_path / "group.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv = argv + ["--config", str(path)]
    t0 = time.perf_counter()
    rc = run(argv + ["--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 5.0
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_overflow_while_enumerating_exit_code(tmp_path, capsys):
    # The nested generators alpha^-n beta alpha^n leave double precision
    # long before n = 1000.
    path = tmp_path / "group.json"
    path.write_text(json.dumps(
        {"kind": "nested_subgroup", "generators": [_A, _B], "depth": 1000}))
    rc = run(["census", "--config", str(path), "--max-radius", "5",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_OVERFLOW
    err = capsys.readouterr().err
    assert err.startswith("error: arithmetic overflow: ") and err.count("\n") == 1


@pytest.mark.parametrize("limit", [["--max-word-length", "10000000"], ["--max-radius", "1400"]])
def test_conjugated_rows_past_double_precision_exit_with_overflow(tmp_path, capsys, limit):
    # c^-1 g^n c with c = diag(1e-5, 1e5) is formed through c^-1 g^n, whose
    # entry 1e5 lam^n leaves double precision in the four farthest rows of
    # the ball, at d ~ 1398 (they were written as inf and nan).  `census`
    # writes the rows and fails; `exponent` reads only the distances.
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "kind": "conjugated", "conjugator": [["1e-5", "0"], ["0", "1e5"]],
        "inner": {"kind": "cyclic_hyperbolic", "generators": [
            [["1.6487212707001282", "0"], ["0", "0.6065306597126334"]]]}}))
    argv = ["--config", str(path), *limit, "--out"]
    assert run(["census", *argv, str(tmp_path / "census")]) == cli.EXIT_OVERFLOW
    err = capsys.readouterr().err
    assert err.startswith("error: arithmetic overflow: ") and err.count("\n") == 1
    assert not (tmp_path / "census" / "census.csv").exists()
    assert run(["exponent", *argv, str(tmp_path / "exponent")]) == 0


def _far_conjugate(tmp_path, exponent, inner):
    """A config of ``inner`` conjugated by diag(10^-exponent, 10^exponent)."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "kind": "conjugated", "inner": inner,
        "conjugator": [[f"1e-{exponent}", "0"], ["0", f"1e{exponent}"]]}))
    return str(path)


_SCHOTTKY_DOC = groups.spec_to_json_dict(groups.schottky_spec(cli._A, cli._B))


@pytest.mark.parametrize("command", ["census", "exponent", "patterson"])
@pytest.mark.parametrize("exponent, inner, limit", [
    (155, _SCHOTTKY_DOC, ["--max-word-length", "4"]),
    (160, {"kind": "modular_lattice"}, ["--max-radius", "6"]),
], ids=["schottky-1e-155", "lattice-1e-160"])
def test_conjugator_mapping_the_basepoints_past_double_precision_exits_with_overflow(
        tmp_path, capsys, command, exponent, inner, limit):
    # The conjugator maps i to an image whose imaginary part underflows to
    # 0; that was a ValueError from Point, a traceback with exit 1.
    config = _far_conjugate(tmp_path, exponent, inner)
    assert run([command, "--config", config, *limit, "--out", str(tmp_path)]) == cli.EXIT_OVERFLOW
    err = capsys.readouterr().err
    assert err == ("error: arithmetic overflow: the conjugator maps the basepoints "
                   "past double precision\n")


def test_lattice_ball_whose_bound_overflows_exits_over_budget_in_one_line(tmp_path, capsys):
    # Under diag(1e-150, 1e150) the bound on the lattice translations
    # overflows to inf, which bounds nothing: the census is over budget, with
    # no RuntimeWarning on the way.
    config = _far_conjugate(tmp_path, 150, {"kind": "modular_lattice"})
    assert run(["census", "--config", config, "--max-radius", "6",
                "--out", str(tmp_path)]) == cli.EXIT_BUDGET
    err = capsys.readouterr().err
    assert err == "error: census exceeds budget 10000000\n"


def test_lattice_exponent_writes_the_files_of_the_full_census(tmp_path, capsys, monkeypatch):
    # `exponent` counts the lattice ball at i from sums of two squares; its
    # files are those of the census whose rows are enumerated.
    argv = ["exponent", "--config", "lattice", "--max-radius", "11"]
    assert run(argv + ["--out", str(tmp_path / "count")]) == 0
    enumerate_orbit = groups.enumerate_orbit
    monkeypatch.setattr(cli.groups, "enumerate_orbit",
                        lambda *args, **kwargs: enumerate_orbit(*args, **{**kwargs, "rows": True}))
    assert run(argv + ["--out", str(tmp_path / "full")]) == 0
    for name in ("report.csv", "estimate.json"):
        assert (tmp_path / "count" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("radius, code, err", [
    ("20", cli.EXIT_BUDGET, "error: census exceeds budget 10000000\n"),
    ("21", cli.EXIT_OVERFLOW,
     "error: arithmetic overflow: max_radius too large for exact lattice arithmetic\n")])
def test_lattice_exponent_past_the_budget_or_the_integers_exits_in_one_line(
        tmp_path, capsys, radius, code, err):
    assert run(["exponent", "--config", "lattice", "--max-radius", radius,
                "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == err


def test_an_unexpected_error_exits_internal_in_one_line(tmp_path, capsys, monkeypatch):
    # Exit 1 means a failed check; any error without a code of its own is
    # an internal one, reported in one line rather than a traceback.
    def broken(args):
        raise RuntimeError("lost\ntrack")

    monkeypatch.setattr(cli, "cmd_census", broken)
    assert run(["census", "--config", "lattice", "--max-radius", "2",
                "--out", str(tmp_path)]) == cli.EXIT_INTERNAL == 9
    assert capsys.readouterr().err == "error: internal: RuntimeError: lost track\n"


def test_conjugator_within_double_precision_still_enumerates(tmp_path, capsys):
    config = _far_conjugate(tmp_path, 150, _SCHOTTKY_DOC)
    assert run(["census", "--config", config, "--max-word-length", "4",
                "--out", str(tmp_path)]) == 0
    assert "entries=161" in capsys.readouterr().out


@pytest.mark.parametrize("case", list(_BAD_FLAGS))
def test_bad_flags_are_rejected_before_enumerating(tmp_path, capsys, monkeypatch, case):
    def enumerate_orbit(*args, **kwargs):
        raise AssertionError("enumerated before checking the flags")
    monkeypatch.setattr(cli.groups, "enumerate_orbit", enumerate_orbit)
    assert run(_bad_flag_argv(case) + ["--out", str(tmp_path)]) == cli.EXIT_PARSE


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
    # Inflate every census distance by 20%: the measured parabolic
    # exponent drops to ~0.42 and the counting suite must go red.  The
    # sparse cyclic-hyperbolic census then starves its estimator, which
    # must surface as a failed suite, not a crashed run.
    true_distances = groups.origin_distances_many

    def warped(mats, *basepoints):
        return 1.2 * true_distances(mats, *basepoints)

    monkeypatch.setattr(cli.groups, "origin_distances_many", warped)
    rc = run(["check", "--filter", "counting", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL parabolic-exponent" in out


def test_patterson_suite_peak_is_its_word_length_11_stage():
    # The suite releases each census, with its measures, audits and renders,
    # before it enumerates the next, so its traced peak is that of its
    # word-length-11 stage (enumeration, measure, shadow audit) up to 2 MiB.
    # Measured: 44.97 against 44.28 MiB; with the word-length-10 census, its
    # measure and the renders alive through that stage it was 70.3 MiB.
    spec = groups.schottky_spec(cli._A, cli._B)
    delta = counting.estimate_exponent(counting.make_report(
        groups.enumerate_orbit(spec, max_word_length=10, rows=False))).point_estimate

    def stage():
        deep = groups.enumerate_orbit(spec, max_word_length=11)
        mu = patterson.orbital_measure(deep, delta + 0.1)
        patterson.shadow_lemma_audit(deep, mu, alpha=delta, r=1.5)

    def traced_peak(work):
        tracemalloc.start()
        try:
            result = work()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    results, suite_peak = traced_peak(lambda: list(cli._suite_patterson()))
    assert [name for name, ok, _ in results if ok] == [
        "conformality", "equivariance", "shadow-lemma", "render-determinism"]
    assert suite_peak <= traced_peak(stage)[1] + 2 * 1024 * 1024


# `--filter se` selects separation and sequences: separation runs in the
# forked worker and sequences in this process.  `patterson` at word length 9
# forks a worker for the first 16,384 rows of each measure file.
# Monkeypatches reach the worker because it is a fork of this process.


@pytest.fixture
def no_child_left():
    # A worker that hangs fails the test instead of stalling the run.
    def expire(signum, frame):
        raise TimeoutError("the command did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check(out, capsys, pattern):
    rc = run(["check", "--filter", pattern, "--out", str(out)])
    return rc, capsys.readouterr().out, json.loads((out / "check.json").read_text())


def test_check_worker_results_match_each_suite_alone(tmp_path, capsys, no_child_left):
    rc, out, doc = _check(tmp_path / "se", capsys, "se")
    alone = [_check(tmp_path / name, capsys, name)
             for name in ("separation", "sequences")]
    assert rc == 0 and all(code == 0 for code, _, _ in alone)
    lines = [line for _, text, _ in alone for line in text.splitlines()[:-1]]
    assert out.splitlines() == lines + [f"{len(lines)}/{len(lines)} checks passed"]
    assert doc == {**alone[0][2], "results": alone[0][2]["results"] + alone[1][2]["results"]}


@pytest.mark.parametrize("fork", ["missing", "failing"])
def test_check_runs_every_suite_here_without_a_fork(tmp_path, capsys, monkeypatch,
                                                    no_child_left, fork):
    expected = _check(tmp_path / "forked", capsys, "se")

    def no_process(*args):
        raise OSError("fork failed")

    if fork == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_process)
    assert _check(tmp_path / "inline", capsys, "se") == expected


def test_check_worker_suite_budget_aborts_that_suite(tmp_path, capsys, monkeypatch,
                                                     no_child_left):
    def over_budget():
        yield ("kept-check", True, "computed before the abort")
        raise groups.BudgetExceeded("census exceeds budget 5")

    monkeypatch.setitem(cli._SUITES, "separation", over_budget)
    rc, out, doc = _check(tmp_path, capsys, "se")
    assert rc == cli.EXIT_CHECK_FAILED
    assert out.splitlines()[:2] == [
        "PASS kept-check: computed before the abort",
        "FAIL separation-suite: aborted: census exceeds budget 5"]
    assert [r["name"] for r in doc["results"]][:3] == [
        "kept-check", "separation-suite", "sequence-exponent-agreement"]


class _UnpicklableError(Exception):
    def __init__(self, what, where):  # unpickling calls it with one argument
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("error, message", [
    (RuntimeError("worker crashed"), "worker crashed"),
    (_UnpicklableError("crash", "suite"), "_UnpicklableError: crash at suite"),
])
def test_check_worker_suite_error_is_raised_here(tmp_path, capsys, monkeypatch,
                                                 no_child_left, error, message):
    def crashing():
        raise error
        yield

    # The worker's error is raised in this process, where `main` reports it
    # as an internal error in one line.
    monkeypatch.setitem(cli._SUITES, "separation", crashing)
    assert run(["check", "--filter", "se", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal: RuntimeError: {message}\n"


def test_check_killed_worker_fails_its_suites(tmp_path, capsys, monkeypatch, no_child_left):
    def killed():
        os.kill(os.getpid(), signal.SIGKILL)
        yield

    monkeypatch.setitem(cli._SUITES, "separation", killed)
    rc, out, doc = _check(tmp_path, capsys, "se")
    assert rc == cli.EXIT_CHECK_FAILED
    assert out.splitlines()[0] == (
        f"FAIL separation-suite: aborted: worker ended by signal {int(signal.SIGKILL)}")
    assert [r["pass"] for r in doc["results"]] == [False, True, True, True, True]


@pytest.fixture
def forks(monkeypatch):
    """The calls of `os.fork`, counted in this process."""
    calls = []
    fork = os.fork

    def spy():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls


def _patterson(out, capsys, word_length, *flags):
    """(exit code, stdout, stderr, {file name: bytes}) of one `patterson` run,
    with the output directory in stdout written as OUT."""
    rc = run(["patterson", "--config", "schottky", "--max-word-length", str(word_length),
              *flags, "--out", str(out)])
    cap = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return rc, cap.out.replace(str(out), "OUT"), cap.err, files


def _one_process_measure_files(word_length, s_values):
    """Each measure file as one `AtomicMeasure.write_csv` call writes it."""
    doc, digest = cli.load_config("schottky")
    census = groups.enumerate_orbit(groups.spec_from_json_dict(doc),
                                    max_word_length=word_length)
    header = [f"tool_version={cli.__version__}", f"config_hash={digest}", "seed=0"]
    files = {}
    for s in s_values:
        fh = io.StringIO()
        patterson.orbital_measure(census, s).write_csv(fh, header_lines=header)
        files[f"measure_s{s:.4f}.csv"] = fh.getvalue().encode()
    return files


def _remove_fork(monkeypatch, how):
    def no_process(*args):
        raise OSError("fork failed")

    if how == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", no_process)


_S_GRID = ("--s-grid", "0.7:0.8:0.05")


@pytest.mark.parametrize("audit", ["conformal", "equivariance", "shadow"])
def test_patterson_files_are_the_same_with_and_without_a_fork(
        tmp_path, capsys, monkeypatch, no_child_left, forks, audit):
    flags = ("--audit", audit, "--render", *_S_GRID)
    forked = _patterson(tmp_path / "forked", capsys, 9, *flags)
    assert len(forks) == 1 and forked[0] == 0 and forked[2] == ""
    want = _one_process_measure_files(9, (0.7, 0.75, 0.8))
    assert {name: forked[3][name] for name in want} == want
    assert len(forked[3]) == 7 and forked[1].endswith("\nwrote OUT/render.ppm\n")
    for how in ("missing", "failing"):
        with monkeypatch.context() as m:
            _remove_fork(m, how)
            assert _patterson(tmp_path / how, capsys, 9, *flags) == forked


def test_patterson_too_small_to_fork_writes_the_same_files(tmp_path, capsys, monkeypatch,
                                                          no_child_left, forks):
    # Word length 7 has 4,373 rows: the worker's share is not one chunk.
    flags = ("--audit", "shadow", "--render")
    here = _patterson(tmp_path / "here", capsys, 7, *flags)
    assert not forks and here[0] == 0
    with monkeypatch.context() as m:
        _remove_fork(m, "missing")
        assert _patterson(tmp_path / "missing", capsys, 7, *flags) == here
    # In chunks of 64 rows the worker takes 2,816 of them.
    monkeypatch.setattr(groups, "_TABLE_CHUNK", 64)
    assert _patterson(tmp_path / "forked", capsys, 7, *flags) == here
    assert len(forks) == 1


@pytest.mark.parametrize("failure, code, message", [
    ("raise", cli.EXIT_OVERFLOW, "error: arithmetic overflow: worker overflow\n"),
    ("kill", cli.EXIT_WORKER, f"error: worker ended by signal {int(signal.SIGKILL)}\n"),
])
def test_patterson_worker_failure_exits_with_its_code(tmp_path, capsys, monkeypatch,
                                                      no_child_left, forks,
                                                      failure, code, message):
    # Only the worker fails: its rows come from the first call of the writer.
    parent = os.getpid()
    chunks = patterson.measure_csv_chunks

    def failing(measures, rows=slice(None)):
        if os.getpid() != parent:
            if failure == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OverflowError("worker overflow")
        return chunks(measures, rows)

    monkeypatch.setattr(patterson, "measure_csv_chunks", failing)
    rc, out, err, _ = _patterson(tmp_path, capsys, 9, "--audit", "shadow", *_S_GRID)
    assert len(forks) == 1
    assert rc == code and err == message
    assert out.startswith("shadow_min_ratio=")


@pytest.mark.parametrize("stage", ["shadow_lemma_audit", "render_ppm"])
def test_patterson_error_after_the_fork_keeps_whole_measure_files(
        tmp_path, capsys, monkeypatch, no_child_left, forks, stage):
    # As in one process, an error in the audit or the render comes after
    # every measure file and histogram is written whole.
    def overflow(*args, **kwargs):
        raise OverflowError(f"{stage} overflow")

    monkeypatch.setattr(patterson, stage, overflow)
    rc, out, err, files = _patterson(tmp_path, capsys, 9, "--audit", "shadow", "--render",
                                     *_S_GRID)
    assert len(forks) == 1
    assert rc == cli.EXIT_OVERFLOW and err == f"error: arithmetic overflow: {stage} overflow\n"
    want = _one_process_measure_files(9, (0.7, 0.75, 0.8))
    assert {name: files[name] for name in want} == want
    written = {"render.ppm": b""} if stage == "render_ppm" else {}
    assert sorted(files) == sorted([*want, *(f"histogram_s{s}.csv" for s in ("0.7000", "0.7500", "0.8000")),
                                    *written])
    assert all(files[name] == data for name, data in written.items())
