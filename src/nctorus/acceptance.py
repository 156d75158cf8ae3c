"""The claims' computations, and the acceptance criteria that gate them.

A claim function (weyl_claim, heat_claim, connes_claim) computes the numbers
of one experiment from a config and returns its report with the data behind
it; the CLI runner writes them to disk.  Each composes the sections, symbols
and spectral estimators itself: connes_claim alone puts a Connes or Corollary
comparison together.  Criteria 1-7 run the same functions on named presets and
gate the reports; criteria 8-10 have no runner twin.  A criterion returns a
CriterionResult with the measured numbers, the tolerance actually applied
(scaled by the run's tolerance_scale) and the verdict.  The heavy inputs (the
bandwidth-48 perturbed spectrum, the flat-resolvent Dixmier estimate) are
computed once per context and shared.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
import warnings
from collections import Counter

import numpy as np

from . import algebra as alg
from .algebra import (
    ConformalData,
    add,
    adjoint,
    delta,
    inner_product,
    make_monomial,
    mul,
    phi,
    scale,
    trace_t,
    unit,
)
from .config import PRESETS, ConfigError, ExperimentConfig
from .gns import (
    BasisWindow,
    Runs,
    SpectrumResult,
    descending_runs,
    generalized_spectrum,
    gram_laplacian_matrix,
    hermitian_spectrum,
    perturbed_laplacian_matrix,
    runs_of,
)
from .heat import (
    heat_coefficient,
    heat_trace_fit,
    laplace_symbol,
    parametrix_residual,
    trimmed_symbol_data,
)
from .spectral import (
    CountingData,
    DixmierData,
    _section_dixmier,
    adaptive_counting_ceiling,
    box_containment_ceiling,
    dixmier_estimate,
    lattice_counting_data,
    lattice_disk_eigenvalues,
    resolvent_mu_disk,
    singular_values_descending,
    weyl_constant_closed_form,
    weyl_slope,
)
from .symbols import (
    GradedSymbol,
    PolySymbol,
    adjoint_poly,
    apply_op,
    classicalize_resolvent,
    compose_poly,
    finite_section_of_op,
    residue,
)

TAU_I = alg.ModuliPoint(0.0, 1.0)
# the lattice disk Q(m, n) <= DISK_QMAX behind the analytic Dixmier estimates
DISK_QMAX = 1.0e6
# the config fields a preset sets; a verify config keeps their defaults
PRESET_FIELDS = sorted({key for fields in PRESETS.values() for key in fields})


def section_spectrum(cfg: ExperimentConfig) -> SpectrumResult:
    """The spectrum of the K D K section of cfg's Weyl factor at cfg.bandwidth."""
    window = BasisWindow(cfg.bandwidth)
    return hermitian_spectrum(perturbed_laplacian_matrix(cfg.conformal_data(), window))


def weyl_claim(cfg: ExperimentConfig, spectrum=None):
    """The eigenvalue counting slope against pi t(k^{-2}) / Im(tau): the
    report and the counting data.  spectrum: section_spectrum(cfg), when
    it is already at hand (a perturbed cfg only)."""
    cd = cfg.conformal_data()
    wc = weyl_constant_closed_form(cd)
    if cfg.is_flat:
        counting = lattice_counting_data(cfg.moduli, cfg.flat_band)
        tol = cfg.tolerance("weyl_flat")
    else:
        spec = section_spectrum(cfg) if spectrum is None else spectrum
        ceiling = adaptive_counting_ceiling(CountingData(spec.eigenvalues, cfg.bandwidth))
        counting = CountingData(spec.eigenvalues, cfg.bandwidth, explicit_ceiling=ceiling,
                                note="adaptive trusted ceiling")
        tol = cfg.tolerance("weyl_perturbed")
    fit = weyl_slope(counting)
    rel = abs(fit.slope - wc.slope) / wc.slope
    report = {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "closed_form": wc.slope,
        "volume": wc.volume,
        "trace_kinv2": wc.trace_kinv2,
        "route_gap": wc.route_gap,
        # ungated: the exponentials' padding convergence over EXP_CONV_TOL
        "exp_convergence_fractions": {"k": cd.k_convergence / alg.EXP_CONV_TOL,
                                      "k_inv2": cd.k_inv2_convergence / alg.EXP_CONV_TOL},
        "rel_error": rel,
        "tolerance": tol,
        "fit_window": list(fit.window),
        "ceiling": counting.lambda_max,
        "ceiling_note": counting.note,
        "passed": rel <= tol,
    }
    if not cfg.is_flat:
        report["asymmetry"] = spec.diagnostics["asymmetry"]  # ungated
    return report, counting


def heat_claim(cfg: ExperimentConfig, spectrum=None):
    """The heat coefficient b0 by contour quadrature, by a fit to the heat
    trace of the spectrum and in closed form: the report and the Runs of
    the spectrum it fits.  spectrum as for weyl_claim."""
    cdata = cfg.conformal_data()
    closed = weyl_constant_closed_form(cdata).slope  # pi/Im(tau) t(k^{-2}) is also b0
    ls = laplace_symbol(cdata)
    quad = heat_coefficient(0, ls)
    # window truncation: the same quadrature on a window padded by 4 more
    pad = quad.params["window"] - ls.k2.support_bandwidth()
    window_gap = abs(heat_coefficient(0, ls, window_pad=pad + 4).value - quad.value)
    if cfg.is_flat:
        # the sublevel ellipse the index box contains, as the flat Weyl fit cuts it
        spec = lattice_disk_eigenvalues(cfg.moduli,
                                        box_containment_ceiling(cfg.moduli, cfg.flat_band))
    else:
        spec = runs_of((section_spectrum(cfg) if spectrum is None else spectrum).eigenvalues)
    fit = heat_trace_fit(spec)
    gaps = {
        "quad_vs_closed": abs(quad.value - closed) / closed,
        "fit_vs_closed": abs(fit.b0 - closed) / closed,
        "quad_vs_fit": abs(quad.value - fit.b0) / max(abs(fit.b0), 1e-30),
    }
    if cfg.is_flat:
        tol = cfg.tolerance("heat_flat_abs")
        gated = {k: abs(b - closed) for k, b in (("quad_vs_closed", quad.value),
                                                  ("fit_vs_closed", fit.b0))}
    else:
        tol = cfg.tolerance("heat_pairwise")
        gated = gaps
    ok = all(g <= tol for g in gated.values())
    report = {
        "b0_quadrature": quad.value,
        "b0_fit": fit.b0,
        "b0_closed_form": closed,
        "b2_fit": fit.b2,
        "pairwise_gaps": gaps,
        "tolerance": tol,
        "gap_fractions": {k: g / tol for k, g in gated.items()},
        "window_gap": window_gap,
        "contour_gate_error": quad.contour_error,
        "quadrature_tail": quad.tail,
        "b0_imag_residual": quad.imag_residual,
        "quadrature_params": quad.params,
        "fit_t_window": list(fit.t_window),
        "passed": ok,
    }
    return report, spec


def graded_symbol(cfg: ExperimentConfig) -> GradedSymbol:
    """The graded symbol that cfg.symbol names."""
    kind, par, depth = cfg.symbol
    if kind == "flat_resolvent":
        return classicalize_resolvent(par, cfg.moduli, max(depth, 1), cfg.angle)
    if kind == "k_weighted":
        kinv2 = cfg.conformal_data().k_inv2.trimmed(1e-13)
        return GradedSymbol(cfg.angle, -2, 1, {-2: {0: kinv2}})
    if kind == "power":
        order = int(par)
        return GradedSymbol(cfg.angle, order, 1, {order: {0: unit(cfg.angle)}})
    raise ConfigError(f"no graded symbol for kind {kind!r}")


def connes_claim(cfg: ExperimentConfig):
    """The Dixmier estimate of the operator cfg.symbol names against half its
    residue (or the route's closed form): the report and the estimate."""
    kind = cfg.symbol[0]
    tol = cfg.tolerance("connes_ratio")
    if kind == "flat_resolvent":
        p = graded_symbol(cfg)
        res = residue(p).real
        est = dixmier_estimate(DixmierData(resolvent_mu_disk(cfg.symbol[1], DISK_QMAX,
                                                             cfg.moduli)))
        ratio = est.value / res
        report = {"residue": res, "dixmier": est.value, "drift": est.drift,
                  "cesaro": est.cesaro, "ratio": ratio,
                  "passed": abs(ratio - 0.5) <= 0.5 * tol,
                  "route": "analytic disk eigenvalues",
                  "discarded_winding_mass": p.diagnostics.get("discarded_winding_mass", 0.0)}
    elif kind == "k_weighted":
        # the warnings of the whole route: the symbol, its section and the SVD
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            p = graded_symbol(cfg)
            res = residue(p).real
            mat = finite_section_of_op(p, BasisWindow(cfg.bandwidth)).matrix
            est = _section_dixmier(singular_values_descending(mat))
        ratio = est.value / res if res != 0.0 else math.inf
        report = {"residue": res, "dixmier": est.value, "drift": est.drift,
                  "ratio": ratio, "passed": abs(ratio - 0.5) <= 0.5 * tol,
                  "route": f"finite section N={cfg.bandwidth}",
                  "warnings": dict(Counter(c.category.__name__ for c in caught))}
    elif kind == "power":
        order = cfg.symbol[1]
        if order > -2.5:
            raise ConfigError("power preset expects order <= -3 (trace class)")
        # pow is not correctly rounded, so the map need not reverse the order
        disk = lattice_disk_eigenvalues(cfg.moduli, DISK_QMAX)
        mu = descending_runs(Runs((1.0 + disk.values) ** (order / 2.0), disk.mult))
        est = dixmier_estimate(DixmierData(mu))
        report = {"residue": 0.0, "dixmier": est.value, "drift": est.drift,
                  "vanishing": est.vanishing, "passed": est.vanishing,
                  "route": "trace-class decay, Dixmier trace vanishes"}
    elif kind == "perturbed_resolvent":
        # 1/(1 + x) reverses the ascending section spectrum
        est = _section_dixmier(1.0 / (1.0 + np.clip(section_spectrum(cfg).eigenvalues, 0.0, None)))
        closed = weyl_constant_closed_form(cfg.conformal_data()).slope
        ratio = est.value / closed if closed else math.inf
        report = {"dixmier": est.value, "drift": est.drift,
                  "closed_form": closed, "ratio": ratio,
                  "passed": abs(ratio - 1.0) <= tol,
                  "route": "Corollary preset (1+perturbed)^{-1}"}
    else:
        raise ConfigError(f"unknown symbol kind {kind!r}")
    return report, est


@dataclasses.dataclass
class CriterionResult:
    ident: int
    name: str
    passed: bool
    details: dict
    seconds: float
    configs: dict  # preset name -> the resolved config the criterion ran


class AcceptanceContext:
    """A verify run's settings and the state its criteria share.

    Each criterion runs its presets with the theta, bandwidth, flat_band,
    tolerance_scale and out_dir of base, so base must keep the defaults of
    the fields a preset sets (tau, h_spec, symbol)."""

    def __init__(self, base: ExperimentConfig | None = None):
        default = ExperimentConfig()
        self.base = base or default
        changed = [k for k in PRESET_FIELDS if getattr(self.base, k) != getattr(default, k)]
        if changed:
            raise ConfigError(f"verify runs each criterion on its own preset, so {changed} "
                              "must keep their defaults")
        self._shared = {}

    @property
    def angle(self) -> alg.DeformationAngle:
        return self.base.angle

    def config(self, name: str) -> ExperimentConfig:
        """The preset `name` with this run's settings."""
        return dataclasses.replace(self.base, **PRESETS[name])

    def shared(self, fn, *args):
        """fn(*args), computed once per context."""
        key = (fn, *args)
        if key not in self._shared:
            self._shared[key] = fn(*args)
        return self._shared[key]

    def tol(self, value: float) -> float:
        return value * self.base.tolerance_scale

    @property
    def perturbed_spectrum(self) -> SpectrumResult:
        return self.shared(section_spectrum, self.config("perturbed"))


def _criterion(ident: int, name: str, *presets: str):
    """fn(ctx, *resolved preset configs) -> (passed, details) as the timed
    criterion `ident`.  A criterion that raises fails with details
    {"error": "<type>: <message>"}, and the other criteria still run."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(ctx: AcceptanceContext) -> CriterionResult:
            t0 = time.time()
            configs = {p: ctx.config(p) for p in presets}
            try:
                passed, details = fn(ctx, *configs.values())
            except Exception as exc:
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return CriterionResult(ident, name, passed, details, time.time() - t0, configs)
        return run
    return wrap


def _slope_details(report: dict) -> dict:
    return {"slope": report["slope"], "target": report["closed_form"],
            "rel_error": report["rel_error"], "ceiling": report["ceiling"],
            "stderr": report["stderr"]}


@_criterion(1, "flat Weyl law (tau = i)", "flat")
def criterion_1(ctx, flat):
    report, _ = weyl_claim(flat)
    return report["passed"], {**_slope_details(report), "tolerance": report["tolerance"]}


@_criterion(2, "anisotropic flat Weyl law", "flat-tau2i", "flat-tau1plusi")
def criterion_2(ctx, tau_2i, tau_1_plus_i):
    r2, r3 = weyl_claim(tau_2i)[0], weyl_claim(tau_1_plus_i)[0]
    details = {"tau_2i": _slope_details(r2), "tau_1_plus_i": _slope_details(r3),
               "tolerance": r2["tolerance"]}
    return r2["passed"] and r3["passed"], details


@_criterion(3, "perturbed Weyl law", "perturbed")
def criterion_3(ctx, perturbed):
    report, counting = weyl_claim(perturbed, ctx.perturbed_spectrum)
    details = {k: report[k] for k in ("slope", "closed_form", "rel_error", "tolerance",
                                      "ceiling", "trace_kinv2")}
    details["bandwidth"] = perturbed.bandwidth
    details["quarter_cap"] = CountingData(counting.eigenvalues, perturbed.bandwidth).lambda_max
    return report["passed"], details


@_criterion(4, "heat coefficient three-route agreement", "flat", "perturbed")
def criterion_4(ctx, flat, perturbed):
    # flat: quadrature and fit both within 0.01 of pi; perturbed: the three
    # routes pairwise within 5 percent
    flat_rep, _ = heat_claim(flat)
    rep, _ = heat_claim(perturbed, ctx.perturbed_spectrum)
    details = {
        "flat_quadrature": flat_rep["b0_quadrature"], "flat_fit": flat_rep["b0_fit"],
        "flat_tolerance_abs": flat_rep["tolerance"],
        "perturbed": {"quadrature": rep["b0_quadrature"], "fit": rep["b0_fit"],
                      "closed_form": rep["b0_closed_form"]},
        "pairwise_gaps": rep["pairwise_gaps"], "pairwise_tolerance": rep["tolerance"],
        "gap_fractions": rep["gap_fractions"],
        "window_gap": {"flat": flat_rep["window_gap"], "perturbed": rep["window_gap"]},
    }
    return flat_rep["passed"] and rep["passed"], details


@_criterion(5, "residue anchor res((1+flat)^{-1}) = 2 pi", "connes-flat-resolvent")
def criterion_5(ctx, resolvent):
    tol = resolvent.tolerance("residue_anchor")
    res = ctx.shared(connes_claim, resolvent)[0]["residue"]
    err = abs(res - 2.0 * math.pi)
    details = {"residue": res, "target": 2.0 * math.pi, "abs_error": err, "tolerance": tol}
    return err <= tol, details


@_criterion(6, "Dixmier anchor on (1+flat)^{-1}", "connes-flat-resolvent")
def criterion_6(ctx, resolvent):
    tol_val = resolvent.tolerance("dixmier_anchor")
    tol_drift = resolvent.tolerance("dixmier_drift")
    est = ctx.shared(connes_claim, resolvent)[1]
    rel = abs(est.value - math.pi) / math.pi
    details = {"value": est.value, "target": math.pi, "rel_error": rel,
               "drift": est.drift, "cesaro": est.cesaro,
               "tolerances": {"value": tol_val, "drift": tol_drift},
               "n_values": est.n_values}
    return rel <= tol_val and est.drift <= tol_drift, details


@_criterion(7, "Connes trace theorem at desk scale", "connes-k-weighted")
def criterion_7(ctx, k_weighted):
    half_tol = k_weighted.tolerance("connes_ratio")
    lo, hi = 0.5 * (1.0 - half_tol), 0.5 * (1.0 + half_tol)
    report, _ = connes_claim(k_weighted)
    details = {"residue": report["residue"], "dixmier": report["dixmier"],
               "ratio": report["ratio"], "band": [lo, hi], "drift": report["drift"],
               "bandwidth": k_weighted.bandwidth, "warnings": report["warnings"]}
    return lo <= report["ratio"] <= hi, details


@_criterion(8, "parametrix identity layers", "perturbed")
def criterion_8(ctx, perturbed):
    tol = perturbed.tolerance("parametrix_layers")
    cd = ctx.shared(ExperimentConfig.conformal_data, perturbed)
    ls = trimmed_symbol_data(laplace_symbol(cd), 1e-10)
    res = parametrix_residual(ls, lam=-1.0 + 3.0j, window=BasisWindow(6))
    details = {"order_0": res[0], "order_m1": res[-1], "order_m2": res[-2],
               "tolerance": tol}
    return res[-1] <= tol and res[-2] <= tol, details


def _identity_suite(ctx: AcceptanceContext):
    """Randomized algebraic identities, 200 cases each: {name: worst deviation}."""
    rng = np.random.default_rng(20260808)
    angle = ctx.angle
    one = unit(angle)
    worst: dict = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    u = make_monomial(1, 0, 1.0, angle)
    v = make_monomial(0, 1, 1.0, angle)
    omega = complex(np.exp(2j * np.pi * angle.theta))
    resid = add(mul(v, u), scale(-omega, mul(u, v)))
    track("commutation", max((abs(c) for c in resid.coeffs.values()), default=0.0))

    kms_cd = ConformalData.build(TAU_I, alg.random_selfadjoint(rng, 4, scale_coeff=0.2,
                                                               angle=angle),
                                 pad=32, trim=1e-13)
    k2 = mul(kms_cd.k, kms_cd.k)
    # phi(b modular(a)) = trace((b e^{-h} a)(e^{h} e^{-h})) by associativity
    kms_right = mul(k2, kms_cd.k_inv2)
    for _ in range(200):
        a = alg.random_element(rng, 4, angle=angle)
        b = alg.random_element(rng, 4, angle=angle)
        track("trace_cyclicity", abs(trace_t(mul(a, b)) - trace_t(mul(b, a))))
        j = int(rng.integers(1, 3))
        track("integration_by_parts",
              abs(trace_t(mul(a, delta(j, b))) + trace_t(mul(delta(j, a), b))))
        sd = add(delta(j, adjoint(a)), adjoint(delta(j, a)))
        track("star_derivation", max((abs(c) for c in sd.coeffs.values()), default=0.0))
        leib = add(
            delta(j, mul(a, b)),
            scale(-1.0, add(mul(delta(j, a), b), mul(a, delta(j, b)))),
        )
        track("leibniz", max((abs(c) for c in leib.coeffs.values()), default=0.0))
        lhs = phi(mul(a, b), kms_cd)
        rhs = alg.trace_of_product(mul(mul(b, kms_cd.k_inv2), a), kms_right)
        track("kms", abs(lhs - rhs))

    w = BasisWindow(6)
    inner_idx = BasisWindow(2)
    cols = [w.index_of(*inner_idx.pair_of(i)) for i in range(inner_idx.dim)]
    for _ in range(200):
        p = PolySymbol(angle, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))):
                alg.random_element(rng, 2, 3, angle=angle)
        })
        a = alg.random_element(rng, 3, angle=angle)
        b = alg.random_element(rng, 3, angle=angle)
        lhs = inner_product(apply_op(p, a), b)
        rhs = inner_product(a, apply_op(adjoint_poly(p), b))
        track("adjoint_pairing", abs(lhs - rhs))
    for _ in range(200):
        p = PolySymbol(angle, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))):
                alg.random_element(rng, 1, 2, angle=angle)
        })
        q = PolySymbol(angle, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))):
                alg.random_element(rng, 1, 2, angle=angle)
        })
        mp = finite_section_of_op(p, w).entries
        mq = finite_section_of_op(q, w).entries
        mpq = finite_section_of_op(compose_poly(p, q), w).entries
        diff = (mp @ mq)[:, cols] - mpq[:, cols]
        track("composition_vs_product", np.max(np.abs(diff)))
    return worst


IDENTITY_TOLERANCES = {
    "commutation": 1e-14,
    "trace_cyclicity": 1e-12,
    "integration_by_parts": 1e-12,
    "star_derivation": 1e-12,
    "leibniz": 1e-12,
    "kms": 1e-10,
    "adjoint_pairing": 1e-10,
    "composition_vs_product": 1e-12,
}


@_criterion(9, "algebraic invariant suite (200 cases each)")
def criterion_9(ctx):
    worst = _identity_suite(ctx)
    results = {}
    ok = True
    for name, tol in IDENTITY_TOLERANCES.items():
        eff = ctx.tol(tol)
        good = worst[name] <= eff
        ok = ok and good
        results[name] = {"worst": worst[name], "tolerance": eff, "passed": good}
    return ok, results


@_criterion(10, "cross-construction spectrum (pencil vs K D K)", "perturbed")
def criterion_10(ctx, perturbed):
    cd = ctx.shared(ExperimentConfig.conformal_data, perturbed)
    tols = {16: ctx.tol(0.01), 24: ctx.tol(0.003)}
    details = {}
    ok = True
    for N, tol in tols.items():
        w = BasisWindow(N)
        op, gm = gram_laplacian_matrix(cd, w)
        pencil_spec = generalized_spectrum(op, gm)
        direct_spec = hermitian_spectrum(perturbed_laplacian_matrix(cd, w))
        pencil, direct = pencil_spec.eigenvalues, direct_spec.eigenvalues
        # both constructions share the constants kernel; compare the next ten
        kernel_ok = abs(pencil[0]) < 1e-8 and abs(direct[0]) < 1e-8
        rel = np.abs(pencil[1:11] - direct[1:11]) / np.abs(direct[1:11])
        good = kernel_ok and float(rel.max()) <= tol
        ok = ok and good
        details[f"N_{N}"] = {
            "max_rel_diff": float(rel.max()), "tolerance": tol,
            "kernel": [float(pencil[0]), float(direct[0])], "passed": good,
            # ungated: how far each section was from Hermitian before symmetrizing
            "pencil_op_asymmetry": pencil_spec.diagnostics["op_asymmetry"],
            "pencil_gram_asymmetry": pencil_spec.diagnostics["gram_asymmetry"],
            "kdk_asymmetry": direct_spec.diagnostics["asymmetry"],
        }
    return ok, details


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(ctx: AcceptanceContext | None = None, selection=None):
    """Run the selected criteria (all by default) and return their results."""
    ctx = ctx or AcceptanceContext()
    chosen = selection or range(1, len(ALL_CRITERIA) + 1)
    return [ALL_CRITERIA[ident - 1](ctx) for ident in chosen]


def format_tap(results) -> str:
    lines = [f"1..{len(results)}"]
    for i, r in enumerate(results, start=1):
        status = "ok" if r.passed else "not ok"
        lines.append(f"{status} {i} - criterion {r.ident}: {r.name} ({r.seconds:.1f}s)")
    return "\n".join(lines)
