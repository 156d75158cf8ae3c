"""Config round-trip, serialization formats and CLI determinism."""

import cmath
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from nctorus import acceptance, config as cfgmod
from nctorus import io as iomod
from nctorus.algebra import GOLDEN, ModuliPoint, add, adjoint, is_selfadjoint, make_monomial, scale
from nctorus.cli import main
from nctorus.gns import BasisWindow, perturbed_laplacian_matrix
from nctorus.heat import ContourSpec, heat_coefficient, laplace_symbol
from nctorus.spectral import box_containment_ceiling, lattice_disk_eigenvalues
from nctorus.symbols import classicalize_resolvent, symbol_to_json_dict


def test_config_defaults_and_tolerance_scale():
    cfg = cfgmod.ExperimentConfig()
    assert cfg.theta == pytest.approx((math.sqrt(5) - 1) / 2, abs=0)
    assert cfg.tolerance("weyl_flat") == 0.03
    d = cfg.to_dict()
    d.pop("config_schema_version")
    d["tolerance_scale"] = 0.5
    scaled = cfgmod.from_dict(d)
    assert scaled.tolerance("weyl_flat") == 0.015


def test_config_round_trip(tmp_path):
    cfg = cfgmod.preset("perturbed")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = cfgmod.load(path)
    assert again == cfg
    # loading twice is stable (symmetrization is idempotent)
    path.write_text(json.dumps(again.to_dict()))
    assert cfgmod.load(path) == again


def test_config_h_symmetrization():
    cfg = cfgmod.from_dict({"h_spec": [[1, 0, 0.4, 0.0]]})
    assert is_selfadjoint(cfg.h_element(), 1e-15)
    assert cfg.h_element().coeff(1, 0) == pytest.approx(0.4)
    assert cfg.h_element().coeff(-1, 0) == pytest.approx(0.4)
    # twisted mirror for a generic index pair
    cfg2 = cfgmod.from_dict({"h_spec": [[1, 2, 0.1, 0.3]]})
    assert is_selfadjoint(cfg2.h_element(), 1e-15)
    # a mirror listed as 0 is averaged, not filled in
    cfg3 = cfgmod.from_dict({"h_spec": [[1, 0, 0.4, 0.0], [-1, 0, 0.0, 0.0]]})
    assert cfg3.h_element().coeff(1, 0) == pytest.approx(0.2)
    assert cfg3.h_element().coeff(-1, 0) == pytest.approx(0.2)
    # an inconsistent pair becomes its Hermitian projection (h + h*) / 2
    a, b = 0.1 + 0.3j, 0.5 - 0.2j
    cfg4 = cfgmod.from_dict({"h_spec": [[1, 2, a.real, a.imag], [-1, -2, b.real, b.imag]]})
    h = cfg4.h_element()
    assert is_selfadjoint(h, 1e-15)
    phase = cmath.exp(2j * math.pi * cfg4.theta * 2)
    assert h.coeff(1, 2) == pytest.approx((a + b.conjugate() * phase) / 2, abs=1e-15)
    assert h.coeff(-1, -2) == pytest.approx((b + a.conjugate() * phase) / 2, abs=1e-15)


def test_config_round_trip_is_bit_identical():
    # h_spec keeps one row per (m, n), (-m, -n) pair, so reloading an emitted
    # config re-averages nothing, also where the mirror phase is not 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        rows = [[int(rng.integers(-3, 4)), int(rng.integers(-3, 4)),
                 float(rng.standard_normal()), float(rng.standard_normal())]
                for _ in range(3)]
        cfg = cfgmod.from_dict({"h_spec": rows})
        again = cfgmod.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())
        assert again.h_element().coeffs == cfg.h_element().coeffs


def test_config_preset_h_element_unchanged():
    u = make_monomial(1, 0, 1.0, GOLDEN)
    h = scale(0.4, add(u, adjoint(u)))
    assert cfgmod.preset("perturbed").h_spec == ((1, 0, 0.4, 0.0),)
    assert cfgmod.preset("perturbed").h_element().coeffs == h.coeffs


def test_config_rejects_bad_input():
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.from_dict({"tau": [0.0, -1.0]})
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.from_dict({"nonsense_key": 1})
    with pytest.raises(cfgmod.ConfigError):
        cfgmod.ExperimentConfig().tolerance("no_such_tolerance")
    for bad in ({"tau": [1.0]}, {"tau": [0.0, math.nan]}, {"contour": [1, 1, 4]},
                {"h_spec": [[1, 0, 0.4]]}, {"bandwidth": 2.5},
                {"theta": "x"}, {"tau": 5}, {"h_spec": 5}, {"h_spec": [5]},
                {"symbol": 5}, {"symbol": ["k_weighted"]}, {"flat_band": 0},
                {"flat_band": -3}, {"tolerance_scale": "a"}, {"tolerance_scale": -1.0},
                {"tolerance_scale": math.nan}, {"out_dir": 5}, []):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.from_dict(bad)


def test_csv_rfc4180_line_endings(tmp_path):
    path = tmp_path / "vals.csv"
    iomod.write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 3
    assert raw.startswith(b"a,b\r\n")


def _run(argv):
    return main(argv)


def small_flat_config(tmp_path, **overrides):
    d = cfgmod.ExperimentConfig().to_dict()
    d.pop("config_schema_version")
    d.update({"flat_band": 60, "out_dir": str(tmp_path / "runs")})
    d.update(overrides)
    path = tmp_path / "config.json"
    cfg = cfgmod.from_dict(d)
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_cli_weyl_flat_and_manifest_replay(tmp_path):
    cfg_path = small_flat_config(tmp_path)
    assert _run(["weyl", "--config", str(cfg_path)]) == 0
    out = tmp_path / "runs" / "weyl"
    report = json.loads((out / "weyl_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["passed"] is True
    assert report["route_gap"] == 0.0  # k = 1: both routes read t(1) exactly
    assert "asymmetry" not in report  # no section is built
    spectrum1 = (out / "spectrum.csv").read_bytes()
    staircase1 = (out / "staircase.csv").read_bytes()
    # replay from the manifest into a fresh directory: identical bytes
    manifest = out / "manifest.json"
    assert _run(["weyl", "--config", str(manifest),
                 "--out", str(tmp_path / "replay")]) == 0
    out2 = tmp_path / "replay" / "weyl"
    assert (out2 / "spectrum.csv").read_bytes() == spectrum1
    assert (out2 / "staircase.csv").read_bytes() == staircase1


def test_cli_weyl_replay_generic_h_is_byte_identical(tmp_path):
    # m n != 0: the mirror coefficient carries the phase e^{2 pi i theta m n}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"h_spec": [[1, 1, 0.2, 0.1]], "bandwidth": 12}))
    config = path
    files = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        _run(["weyl", "--config", str(config), "--out", str(out)])
        config = out / "weyl" / "manifest.json"
        files.append([(out / "weyl" / name).read_bytes()
                      for name in ("spectrum.csv", "staircase.csv", "weyl_report.json")])
    assert files[0] == files[1] == files[2]


def test_cli_weyl_reports_section_asymmetry(tmp_path):
    """A perturbed weyl report carries, ungated, the asymmetry that
    FiniteSectionOperator discarded from the K D K section it solved."""
    out = tmp_path / "runs"
    assert _run(["weyl", "--preset", "perturbed", "--bandwidth", "12", "--out", str(out)]) == 0
    report = json.loads((out / "weyl" / "weyl_report.json").read_text())
    op = perturbed_laplacian_matrix(cfgmod.preset("perturbed").conformal_data(), BasisWindow(12))
    assert report["asymmetry"] == op.diagnostics["asymmetry"] < 1e-12


def test_cli_rejected_run_leaves_no_directory(tmp_path, capsys):
    path = small_flat_config(tmp_path, symbol=["power", -2.0, 1])
    with pytest.raises(SystemExit) as exc:
        main(["connes-trace", "--config", str(path)])
    assert exc.value.code == 2
    assert "order" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "connes_trace").exists()


def test_cli_weyl_negative_control(tmp_path):
    # halving the tolerance scale breaks nothing for the flat case (0.01%),
    # but a hostile scale does
    cfg_path = small_flat_config(tmp_path, tolerance_scale=1e-6)
    assert _run(["weyl", "--config", str(cfg_path)]) == 1


def test_cli_preset_and_config_are_exclusive(tmp_path, capsys):
    cfg_path = small_flat_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--preset", "flat", "--config", str(cfg_path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_heat_flat(tmp_path):
    cfg_path = small_flat_config(tmp_path, flat_band=120)
    assert _run(["heat", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "runs" / "heat" / "heat_report.json").read_text())
    assert abs(report["b0_quadrature"] - math.pi) < 1e-4
    assert report["b2_quadrature"] == 0.0
    assert report["radial_gap"] == 0.0
    for key in ("b0_imag_residual", "b2_imag_residual"):
        assert report[key] < 1e-10
    trace = (tmp_path / "runs" / "heat" / "heat_trace.csv").read_text()
    assert trace.splitlines()[0] == "t,t_times_trace"
    # summed over the disk's runs, the plain sum over its values to rounding
    cfg = cfgmod.load(cfg_path)
    disk = lattice_disk_eigenvalues(cfg.moduli, box_containment_ceiling(cfg.moduli, 120))
    eigs = np.repeat(disk.values, disk.mult)
    for line in trace.splitlines()[1:]:
        t, y = map(float, line.split(","))
        assert y == pytest.approx(t * np.sum(np.exp(-t * eigs)), rel=1e-14, abs=0.0)


def test_cli_heat_perturbed_radial_gap(tmp_path):
    """The heat report carries the change of b2 with 16 more radial nodes,
    and labels b2 and b2_fit as ungated."""
    out = tmp_path / "runs"
    assert _run(["heat", "--preset", "perturbed", "--bandwidth", "12", "--out", str(out)]) == 0
    report = json.loads((out / "heat" / "heat_report.json").read_text())
    ls = laplace_symbol(cfgmod.preset("perturbed").conformal_data())
    b2 = heat_coefficient(2, ls, contour=ContourSpec(nodes=64))
    more = heat_coefficient(2, ls, contour=ContourSpec(nodes=64),
                            radial_nodes=b2.params["radial_nodes"] + 16)
    assert report["b2_quadrature"] == b2.value
    assert report["radial_gap"] == abs(more.value - b2.value) < 1e-7
    assert "internal consistency" in report["b2_note"]
    assert report["b2_fit_note"].startswith("ungated")


def test_cli_heat_flat_non_rectangular_tau(tmp_path):
    # the fit reads the sublevel ellipse the index box contains, so the
    # corners of the box do not bias b0 for tau = 1 + i
    assert _run(["heat", "--preset", "flat-tau1plusi",
                 "--out", str(tmp_path / "runs")]) == 0
    report = json.loads((tmp_path / "runs" / "heat" / "heat_report.json").read_text())
    assert abs(report["b0_fit"] - math.pi) < 1e-9


def test_cli_contour_sanity(tmp_path):
    assert _run(["heat", "--preset", "contour-sanity",
                 "--out", str(tmp_path / "runs")]) == 0
    report = json.loads((tmp_path / "runs" / "heat" / "heat_report.json").read_text())
    assert report["matrix_identity_error"] < 1e-8


def test_cli_flat_resolvent_reports_discarded_winding_mass(tmp_path):
    """residue and connes-trace report the winding mass the classicalized
    resolvent discards at its 32 windings: 9.2e-4 at tau = 1+i, none at
    tau = i."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the discarded mass is warned about too
        want = acceptance.graded_symbol(cfgmod.preset("flat-tau1plusi")).diagnostics[
            "discarded_winding_mass"]
        for name in ("flat-tau1plusi", "connes-flat-resolvent"):
            assert _run(["residue", "--preset", name, "--out", str(tmp_path / name)]) == 0
            assert _run(["connes-trace", "--preset", name, "--out", str(tmp_path / name)]) == 0
    assert want == pytest.approx(9.2e-4, rel=0.01)
    for name, mass in (("flat-tau1plusi", want), ("connes-flat-resolvent", 0.0)):
        out = tmp_path / name
        for sub, report in (("residue", "residue_report.json"),
                            ("connes_trace", "connes_report.json")):
            assert json.loads((out / sub / report).read_text())["discarded_winding_mass"] == mass


def test_cli_residue_and_compose(tmp_path):
    assert _run(["residue", "--preset", "connes-flat-resolvent",
                 "--out", str(tmp_path / "runs")]) == 0
    report = json.loads((tmp_path / "runs" / "residue" / "residue_report.json").read_text())
    assert report["residue"] == pytest.approx(2 * math.pi, abs=1e-10)
    p = classicalize_resolvent(1.0, ModuliPoint(0.0, 1.0), depth=2, angle=GOLDEN)
    left = tmp_path / "p.json"
    right = tmp_path / "q.json"
    left.write_text(json.dumps(symbol_to_json_dict(p)))
    right.write_text(json.dumps(symbol_to_json_dict(p)))
    out_file = tmp_path / "prod.json"
    assert _run(["compose", str(left), str(right), "--cutoff", "-6",
                 "--out-file", str(out_file)]) == 0
    prod = json.loads(out_file.read_text())
    assert prod["top_order"] == -4
    # leading layer of the square of the resolvent symbol is |xi|^{-4}
    lead = prod["layers"]["-4"]["0"]["coeffs"]
    assert lead[0][2] == pytest.approx(1.0, abs=1e-12)


def test_cli_connes_k_weighted_counts_warnings(tmp_path):
    # the vacuum column drops the order -2 layer at xi = 0: one aggregated
    # OriginRegularization warning, counted in the report instead of silenced
    _run(["connes-trace", "--preset", "connes-k-weighted", "--bandwidth", "24",
          "--out", str(tmp_path / "runs")])
    report = json.loads((tmp_path / "runs" / "connes_trace" / "connes_report.json").read_text())
    assert report["warnings"] == {"OriginRegularization": 1}


def test_cli_verify_subset(tmp_path, capsys):
    rc = _run(["verify", "--preset", "flat", "--out", str(tmp_path / "runs"),
               "--criteria", "1,5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1..2" in out
    assert "ok 1 - criterion 1" in out
    assert "ok 2 - criterion 5" in out
    report = json.loads((tmp_path / "runs" / "verify" / "verify_report.json").read_text())
    assert report["all_passed"] is True
    # each criterion ran its preset with the verify run's settings
    manifest = json.loads((tmp_path / "runs" / "verify" / "manifest.json").read_text())
    want = {"1": "flat", "5": "connes-flat-resolvent"}
    assert {k: list(v) for k, v in manifest["criteria"].items()} == {
        k: [name] for k, name in want.items()}
    for ident, name in want.items():
        cfg = dataclasses.replace(cfgmod.preset(name), out_dir=str(tmp_path / "runs"))
        assert manifest["criteria"][ident][name] == cfg.to_dict()
    assert sorted(manifest["timings"]) == ["1", "5"]


def test_cli_verify_survives_a_raising_criterion(tmp_path, capsys, monkeypatch):
    # a criterion that raises fails with the error as its details; the
    # other criteria still run and the report is still written
    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(acceptance, "weyl_claim", broken)
    rc = _run(["verify", "--out", str(tmp_path / "runs"), "--criteria", "1,5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not ok 1 - criterion 1" in out
    assert "ok 2 - criterion 5" in out
    report = json.loads((tmp_path / "runs" / "verify" / "verify_report.json").read_text())
    results = {r["criterion"]: r for r in report["results"]}
    assert results[1]["passed"] is False
    assert results[1]["details"] == {"error": "RuntimeError: injected failure"}
    assert results[5]["passed"] is True
    assert report["all_passed"] is False


def test_cli_verify_matches_runner_reports(tmp_path, capsys):
    # one computation per claim: each gated number of verify is the number
    # the runner reports for the criterion's preset at the same settings
    cfg_path = small_flat_config(tmp_path, bandwidth=16)
    assert _run(["verify", "--config", str(cfg_path), "--criteria", "1,3,7"]) == 0
    report = json.loads((tmp_path / "runs" / "verify" / "verify_report.json").read_text())
    details = {r["criterion"]: r["details"] for r in report["results"]}
    runs = {}
    for sub, name, report_file in (("weyl", "flat", "weyl_report.json"),
                                   ("weyl", "perturbed", "weyl_report.json"),
                                   ("connes-trace", "connes-k-weighted", "connes_report.json")):
        d = cfgmod.load(cfg_path).to_dict()
        d.pop("config_schema_version")
        d.update(cfgmod.PRESETS[name], out_dir=str(tmp_path / name))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfgmod.from_dict(d).to_dict()))
        assert _run([sub, "--config", str(path)]) == 0
        report_path = tmp_path / name / sub.replace("-", "_") / report_file
        runs[name] = json.loads(report_path.read_text())
    flat, perturbed, connes = runs["flat"], runs["perturbed"], runs["connes-k-weighted"]
    for key in ("slope", "stderr", "rel_error", "ceiling", "tolerance"):
        assert details[1][key] == flat[key]
    assert details[1]["target"] == flat["closed_form"]
    for key in ("slope", "closed_form", "rel_error", "ceiling", "trace_kinv2", "tolerance"):
        assert details[3][key] == perturbed[key]
    for key in ("residue", "dixmier", "ratio", "drift", "warnings"):
        assert details[7][key] == connes[key]
    assert details[7]["bandwidth"] == 16


def test_cli_verify_report_is_deterministic(tmp_path, capsys):
    # wall-clock times go to the manifest only
    reports = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert _run(["verify", "--preset", "flat", "--out", str(out),
                     "--criteria", "1,2,5"]) == 0
        reports.append((out / "verify" / "verify_report.json").read_bytes())
        manifest = json.loads((out / "verify" / "manifest.json").read_text())
        assert sorted(manifest["timings"]) == ["1", "2", "5"]
    assert reports[0] == reports[1]
    assert b"seconds" not in reports[0]


def test_cli_verify_rejects_preset_fields(tmp_path, capsys):
    # verify chooses tau, h_spec and symbol per criterion; a config that sets
    # them would be ignored, so it is an error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "connes-order3", "--criteria", "1,5",
              "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    assert "symbol" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("criteria", ["0", "-1", "11", "x"])
def test_cli_verify_rejects_bad_criteria(tmp_path, capsys, criteria):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--out", str(tmp_path / "runs"), f"--criteria={criteria}"])
    assert exc.value.code == 2
    assert "--criteria" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_cli_config_error_is_a_usage_error(tmp_path, capsys):
    # a key this version no longer reads, as in a manifest of an older run
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"radial_nodes": 64}))
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--config", str(path), "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "radial_nodes" in err
    assert "Traceback" not in err


def test_cli_verify_negative_control(tmp_path, capsys):
    # squeezing the tolerances far enough makes the slope criterion fail
    rc = _run(["verify", "--preset", "flat", "--out", str(tmp_path / "runs"),
               "--criteria", "1", "--tolerance-scale", "1e-6"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not ok 1 - criterion 1" in out
