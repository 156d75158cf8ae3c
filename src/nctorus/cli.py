"""Command-line experiment runner.

Subcommands: weyl | heat | residue | connes-trace | verify | compose.
Every run writes machine-readable outputs (CSV data, JSON report) plus a
manifest capturing the fully resolved configuration; data files carry no
wall-clock content, so replaying a manifest reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, acceptance, config as cfgmod, io as iomod
from .algebra import ConformalData
from .gns import BasisWindow, hermitian_spectrum, perturbed_laplacian_matrix
from .heat import (
    ContourSpec,
    contour_gate,
    heat_coefficient,
    heat_trace_fit,
    laplace_symbol,
)
from .spectral import (
    CountingData,
    DixmierData,
    adaptive_counting_ceiling,
    connes_trace_check,
    dixmier_estimate,
    lattice_counting_data,
    lattice_disk_eigenvalues,
    lattice_eigenvalues,
    perturbed_resolvent_check,
    resolvent_mu_disk,
    weyl_constant_closed_form,
    weyl_slope,
)
from .symbols import (
    GradedSymbol,
    classicalize_resolvent,
    compose,
    format_symbol,
    residue,
    symbol_from_json_dict,
    symbol_to_json_dict,
)


def _resolve_config(args) -> cfgmod.ExperimentConfig:
    if getattr(args, "preset", None):
        cfg = cfgmod.preset(args.preset)
    elif args.config:
        cfg = cfgmod.load(args.config)
    else:
        cfg = cfgmod.default_config()
    overrides = {}
    if args.bandwidth is not None:
        overrides["bandwidth"] = args.bandwidth
    if args.tolerance_scale is not None:
        overrides["tolerance_scale"] = args.tolerance_scale
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        d = cfg.to_dict()
        d.pop("config_schema_version", None)
        d.update(overrides)
        cfg = cfgmod.from_dict(d)
    return cfg


def _out_dir(cfg: cfgmod.ExperimentConfig, sub: str) -> Path:
    out = Path(cfg.out_dir) / sub
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, cfg: cfgmod.ExperimentConfig, extra: dict | None = None):
    manifest = {
        "version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "config": cfg.to_dict(),
    }
    if extra:
        manifest.update(extra)
    iomod.write_report(out / "manifest.json", manifest)


def _staircase_rows(eigs, lam_max, n=256):
    lams = np.geomspace(max(lam_max / 1e4, 1e-6), lam_max, n)
    counts = np.searchsorted(eigs, lams, side="left")
    return [(float(l), int(c)) for l, c in zip(lams, counts)]


def run_weyl(cfg: cfgmod.ExperimentConfig) -> int:
    out = _out_dir(cfg, "weyl")
    cdata_conf = cfg.conformal_data()
    wc = weyl_constant_closed_form(cdata_conf)
    if cfg.is_flat:
        counting = lattice_counting_data(cfg.moduli, cfg.flat_band)
        tol = cfg.tolerance("weyl_flat")
        ceiling_note = counting.note
    else:
        spec = hermitian_spectrum(
            perturbed_laplacian_matrix(cdata_conf, BasisWindow(cfg.bandwidth))
        ).eigenvalues
        base = CountingData(spec, cfg.bandwidth, ceiling_fraction=cfg.ceiling_fraction)
        if cfg.adaptive_ceiling:
            ceiling = adaptive_counting_ceiling(base)
            counting = CountingData(spec, cfg.bandwidth, cfg.ceiling_fraction,
                                    explicit_ceiling=ceiling,
                                    note="adaptive trusted ceiling")
            ceiling_note = counting.note
        else:
            counting = base
            ceiling_note = f"fraction {cfg.ceiling_fraction} of the largest eigenvalue"
        tol = cfg.tolerance("weyl_perturbed")
    fit = weyl_slope(counting, fit_window=cfg.weyl_fit_window)
    rel = abs(fit.slope - wc.slope) / wc.slope
    iomod.write_eigenvalues_csv(out / "spectrum.csv", counting.eigenvalues)
    iomod.write_csv(out / "staircase.csv", ["lambda", "count"],
                    _staircase_rows(counting.eigenvalues, counting.lambda_max))
    report = {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "closed_form": wc.slope,
        "volume": wc.volume,
        "trace_kinv2": wc.trace_kinv2,
        "rel_error": rel,
        "tolerance": tol,
        "fit_window": list(fit.window),
        "ceiling": counting.lambda_max,
        "ceiling_note": ceiling_note,
        "passed": rel <= tol,
    }
    iomod.write_report(out / "weyl_report.json", report)
    _write_manifest(out, cfg)
    print(f"weyl: slope {fit.slope:.6f} vs closed form {wc.slope:.6f} "
          f"(rel {rel:.2%}, tol {tol:.0%}) -> {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_heat(cfg: cfgmod.ExperimentConfig) -> int:
    out = _out_dir(cfg, "heat")
    alpha, beta, gamma, nodes = cfg.contour
    contour = ContourSpec(alpha, beta, gamma, int(nodes))
    if cfg.symbol[0] == "contour_sanity":
        import scipy.linalg as sla

        gate_err = contour_gate(contour, s_max=200.0, tol=cfg.tolerance("contour_gate"))
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6))
        m = a @ a.T / 6.0 + 0.1 * np.eye(6)
        lam, wq = contour.points()
        acc = np.zeros((6, 6), dtype=complex)
        for lv, wv in zip(lam, wq):
            acc += wv * np.exp(-lv) * np.linalg.inv(m - lv * np.eye(6))
        merr = float(np.max(np.abs(acc - sla.expm(-m))))
        ok = merr <= cfg.tolerance("contour_gate")
        iomod.write_report(out / "heat_report.json", {
            "scalar_gate_error": gate_err, "matrix_identity_error": merr,
            "tolerance": cfg.tolerance("contour_gate"), "passed": ok,
        })
        _write_manifest(out, cfg)
        print(f"heat: contour sanity scalar {gate_err:.2e}, matrix {merr:.2e} "
              f"-> {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    cdata = cfg.conformal_data()
    ls = laplace_symbol(cdata)
    wc = weyl_constant_closed_form(cdata)
    quad = heat_coefficient(0, ls, contour=contour, radial_nodes=cfg.radial_nodes,
                            window_pad=cfg.window_pad)
    if cfg.is_flat:
        eigs = lattice_eigenvalues(cfg.moduli, cfg.flat_band)
    else:
        eigs = hermitian_spectrum(
            perturbed_laplacian_matrix(cdata, BasisWindow(cfg.bandwidth))
        ).eigenvalues
    fit = heat_trace_fit(eigs, n_points=cfg.t_points)
    ts = np.geomspace(fit.t_window[0], fit.t_window[1], cfg.t_points)
    trace_rows = [
        (float(t), float(t * np.sum(np.exp(-t * eigs)))) for t in ts
    ]
    iomod.write_csv(out / "heat_trace.csv", ["t", "t_times_trace"], trace_rows)
    b2_quad = None
    if cfg.b2_quadrature:
        b2_quad = heat_coefficient(2, ls, contour=ContourSpec(alpha, beta, gamma, 64),
                                   angular_nodes=cfg.angular_nodes).value
    closed = wc.slope  # pi/Im(tau) t(k^{-2}) is also the heat coefficient
    gaps = {
        "quad_vs_closed": abs(quad.value - closed) / closed,
        "fit_vs_closed": abs(fit.b0 - closed) / closed,
        "quad_vs_fit": abs(quad.value - fit.b0) / max(abs(fit.b0), 1e-30),
    }
    if cfg.is_flat:
        tol = cfg.tolerance("heat_flat_abs")
        ok = abs(quad.value - closed) <= tol and abs(fit.b0 - closed) <= tol
    else:
        tol = cfg.tolerance("heat_pairwise")
        ok = all(g <= tol for g in gaps.values())
    report = {
        "b0_quadrature": quad.value,
        "b0_fit": fit.b0,
        "b0_closed_form": closed,
        "b2_fit": fit.b2,
        "b2_quadrature": b2_quad,
        "pairwise_gaps": gaps,
        "tolerance": tol,
        "contour_gate_error": quad.contour_error,
        "quadrature_tail": quad.tail,
        "quadrature_params": quad.params,
        "fit_t_window": list(fit.t_window),
        "passed": ok,
        "b2_note": "subleading coefficient reported for internal consistency only",
    }
    iomod.write_report(out / "heat_report.json", report)
    _write_manifest(out, cfg)
    print(f"heat: B0 quad {quad.value:.6f} fit {fit.b0:.6f} closed {closed:.6f} "
          f"-> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _build_symbol(cfg: cfgmod.ExperimentConfig):
    kind, par, depth = cfg.symbol[0], float(cfg.symbol[1]), int(cfg.symbol[2])
    if kind == "flat_resolvent":
        return classicalize_resolvent(par, cfg.moduli, max(depth, 1), cfg.angle)
    if kind == "k_weighted":
        cdata = cfg.conformal_data()
        kinv2 = cdata.k_inv2.trimmed(1e-13)
        return GradedSymbol(cfg.angle, -2, 1, {-2: {0: kinv2}})
    if kind == "power":
        from .algebra import unit

        order = int(par)
        return GradedSymbol(cfg.angle, order, 1, {order: {0: unit(cfg.angle)}})
    raise cfgmod.ConfigError(f"no graded symbol for kind {kind!r}")


def run_residue(cfg: cfgmod.ExperimentConfig) -> int:
    out = _out_dir(cfg, "residue")
    p = _build_symbol(cfg)
    val = residue(p)
    report = {"residue": val.real, "symbol_kind": cfg.symbol[0],
              "top_order": p.top_order}
    iomod.write_report(out / "residue_report.json", report)
    _write_manifest(out, cfg)
    print(f"residue: {val.real:.12f}")
    return 0


def run_connes_trace(cfg: cfgmod.ExperimentConfig) -> int:
    out = _out_dir(cfg, "connes_trace")
    kind = cfg.symbol[0]
    tol = cfg.tolerance("connes_ratio")
    report: dict
    if kind == "flat_resolvent":
        c0 = float(cfg.symbol[1])
        p = _build_symbol(cfg)
        res = residue(p).real
        mu = resolvent_mu_disk(c0, cfg.dixmier_qmax, cfg.moduli)
        est = dixmier_estimate(DixmierData(mu))
        ratio = est.value / res
        ok = abs(ratio - 0.5) <= 0.5 * tol
        report = {"residue": res, "dixmier": est.value, "drift": est.drift,
                  "cesaro": est.cesaro, "ratio": ratio, "passed": ok,
                  "route": "analytic disk eigenvalues"}
    elif kind == "k_weighted":
        p = _build_symbol(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = connes_trace_check(p, BasisWindow(cfg.bandwidth))
        ok = abs(rep.ratio - 0.5) <= 0.5 * tol
        report = {"residue": rep.residue, "dixmier": rep.dixmier.value,
                  "drift": rep.dixmier.drift, "ratio": rep.ratio,
                  "passed": ok, "route": f"finite section N={cfg.bandwidth}"}
    elif kind == "power":
        order = float(cfg.symbol[1])
        if order > -2.5:
            raise cfgmod.ConfigError("power preset expects order <= -3 (trace class)")
        q = lattice_disk_eigenvalues(cfg.moduli, cfg.dixmier_qmax)
        mu = np.sort((1.0 + q) ** (order / 2.0))[::-1]
        est = dixmier_estimate(DixmierData(mu))
        ok = est.vanishing
        report = {"residue": 0.0, "dixmier": est.value, "drift": est.drift,
                  "vanishing": est.vanishing, "passed": ok,
                  "route": "trace-class decay, Dixmier trace vanishes"}
    elif kind == "perturbed_resolvent":
        cdata = cfg.conformal_data()
        eigs = hermitian_spectrum(
            perturbed_laplacian_matrix(cdata, BasisWindow(cfg.bandwidth))
        ).eigenvalues
        rep = perturbed_resolvent_check(eigs, cdata)
        ok = abs(rep["ratio"] - 1.0) <= tol
        report = {"dixmier": rep["dixmier"].value, "drift": rep["dixmier"].drift,
                  "closed_form": rep["closed_form"], "ratio": rep["ratio"],
                  "passed": ok, "route": "Corollary preset (1+perturbed)^{-1}"}
    else:
        raise cfgmod.ConfigError(f"unknown symbol kind {kind!r}")
    iomod.write_report(out / "connes_report.json", report)
    _write_manifest(out, cfg)
    print(f"connes-trace[{kind}]: " + ", ".join(
        f"{k}={v:.6g}" for k, v in report.items() if isinstance(v, float)
    ) + f" -> {'pass' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


def run_verify(cfg: cfgmod.ExperimentConfig, selection=None) -> int:
    out = _out_dir(cfg, "verify")
    ctx = acceptance.AcceptanceContext(
        tolerance_scale=cfg.tolerance_scale,
        bandwidth=cfg.bandwidth,
        flat_band=cfg.flat_band,
        theta=cfg.theta,
    )
    results = acceptance.run_all(ctx, selection)
    tap = acceptance.format_tap(results)
    print(tap)
    iomod.write_report(out / "verify_report.json", {
        "results": [
            {"criterion": r.ident, "name": r.name, "passed": r.passed,
             "seconds": r.seconds, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    })
    _write_manifest(out, cfg)
    return 0 if all(r.passed for r in results) else 1


def run_compose(args) -> int:
    with open(args.left, encoding="utf-8") as fh:
        import json

        p = symbol_from_json_dict(json.load(fh))
    with open(args.right, encoding="utf-8") as fh:
        q = symbol_from_json_dict(json.load(fh))
    cutoff = args.cutoff
    prod = compose(p, q, order_cutoff=cutoff)
    print(format_symbol(prod))
    if args.out_file:
        iomod.write_report(args.out_file, symbol_to_json_dict(prod))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Spectral geometry experiments on the noncommutative two torus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="config JSON (or a run manifest)")
        p.add_argument("--preset", type=str, default=None,
                       choices=sorted(cfgmod.PRESETS), help="named preset config")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--bandwidth", type=int, default=None, help="window bandwidth N")
        p.add_argument("--tolerance-scale", type=float, default=None,
                       help="scale all pass/fail tolerances")

    for name, help_text in [
        ("weyl", "eigenvalue counting slope vs the closed-form constant"),
        ("heat", "heat coefficient routes (quadrature, trace fit, closed form)"),
        ("residue", "noncommutative residue of the configured symbol"),
        ("connes-trace", "Dixmier estimate against half the residue"),
        ("verify", "run the acceptance criteria (TAP output)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name == "verify":
            p.add_argument("--criteria", type=str, default=None,
                           help="comma-separated criterion numbers, e.g. 1,2,5")

    pc = sub.add_parser("compose", help="compose two graded symbols from JSON files")
    pc.add_argument("left")
    pc.add_argument("right")
    pc.add_argument("--cutoff", type=int, default=None, help="retain layers >= cutoff")
    pc.add_argument("--out-file", type=str, default=None, help="write the product JSON here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compose":
        return run_compose(args)
    cfg = _resolve_config(args)
    if args.command == "weyl":
        return run_weyl(cfg)
    if args.command == "heat":
        return run_heat(cfg)
    if args.command == "residue":
        return run_residue(cfg)
    if args.command == "connes-trace":
        return run_connes_trace(cfg)
    if args.command == "verify":
        selection = None
        if args.criteria:
            selection = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        return run_verify(cfg, selection)
    raise SystemExit(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
