"""Acceptance criteria: one callable per criterion, shared expensive state.

Each criterion returns a CriterionResult with the measured numbers, the
tolerance actually applied (scaled by the context's tolerance_scale) and the
verdict.  The heavy inputs (the bandwidth-48 perturbed spectrum, its conformal
data) are computed once per context and shared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import (
    ConformalData,
    DeformationAngle,
    ModuliPoint,
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
from .config import DEFAULT_TOLERANCES
from .gns import (
    BasisWindow,
    generalized_spectrum,
    gram_laplacian_matrix,
    hermitian_spectrum,
    perturbed_laplacian_matrix,
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
    adaptive_counting_ceiling,
    counted_connes_trace_check,
    dixmier_estimate,
    lattice_counting_data,
    resolvent_mu_disk,
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

TAU_I = ModuliPoint(0.0, 1.0)


@dataclass
class CriterionResult:
    ident: int
    name: str
    passed: bool
    details: dict
    seconds: float


class AcceptanceContext:
    """Shared inputs for the criterion runners."""

    def __init__(self, tolerance_scale: float = 1.0, bandwidth: int = 48,
                 flat_band: int = 400, theta: float | None = None):
        self.tolerance_scale = tolerance_scale
        self.bandwidth = bandwidth
        self.flat_band = flat_band
        self.angle = DeformationAngle(theta) if theta else alg.GOLDEN
        self._cd = None
        self._spectrum = None

    def tol(self, value: str | float) -> float:
        """A DEFAULT_TOLERANCES entry by name, or a literal, times the scale."""
        if isinstance(value, str):
            value = DEFAULT_TOLERANCES[value]
        return value * self.tolerance_scale

    @property
    def cd(self) -> ConformalData:
        if self._cd is None:
            u = make_monomial(1, 0, 1.0, self.angle)
            h = scale(0.4, add(u, adjoint(u)))
            self._cd = ConformalData.build(TAU_I, h, pad=16)
        return self._cd

    @property
    def perturbed_spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            mat = perturbed_laplacian_matrix(self.cd, BasisWindow(self.bandwidth))
            self._spectrum = hermitian_spectrum(mat).eigenvalues
        return self._spectrum


def _flat_slope_case(tau: ModuliPoint, band: int, target: float, tol: float):
    cdata = lattice_counting_data(tau, band)
    fit = weyl_slope(cdata)
    rel = abs(fit.slope - target) / target
    return rel <= tol, {
        "slope": fit.slope, "target": target, "rel_error": rel,
        "ceiling": cdata.lambda_max, "stderr": fit.stderr,
    }


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol = ctx.tol("weyl_flat")
    ok, details = _flat_slope_case(TAU_I, ctx.flat_band, math.pi, tol)
    details["tolerance"] = tol
    return CriterionResult(1, "flat Weyl law (tau = i)", ok, details, time.time() - t0)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol = ctx.tol("weyl_flat")
    ok2, d2 = _flat_slope_case(ModuliPoint(0.0, 2.0), ctx.flat_band, math.pi / 2, tol)
    ok3, d3 = _flat_slope_case(ModuliPoint(1.0, 1.0), ctx.flat_band, math.pi, tol)
    details = {"tau_2i": d2, "tau_1_plus_i": d3, "tolerance": tol}
    return CriterionResult(2, "anisotropic flat Weyl law", ok2 and ok3, details,
                           time.time() - t0)


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol = ctx.tol("weyl_perturbed")
    wc = weyl_constant_closed_form(ctx.cd)
    spec = ctx.perturbed_spectrum
    base = CountingData(spec, ctx.bandwidth)
    ceiling = adaptive_counting_ceiling(base)
    cdata = CountingData(spec, ctx.bandwidth, explicit_ceiling=ceiling,
                         note="adaptive trusted ceiling")
    fit = weyl_slope(cdata)
    rel = abs(fit.slope - wc.slope) / wc.slope
    details = {
        "slope": fit.slope, "closed_form": wc.slope, "rel_error": rel,
        "tolerance": tol, "ceiling": ceiling, "quarter_cap": base.lambda_max,
        "trace_kinv2": wc.trace_kinv2,
    }
    return CriterionResult(3, "perturbed Weyl law (N = 48)", rel <= tol, details,
                           time.time() - t0)


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol_pair = ctx.tol("heat_pairwise")
    tol_flat = ctx.tol("heat_flat_abs")
    # flat default: quadrature and fit both within 0.01 of pi
    flat_cd = ConformalData.build(TAU_I, alg.zero(ctx.angle), pad=2)
    flat_quad = heat_coefficient(0, laplace_symbol(flat_cd)).value
    ms = np.arange(-ctx.flat_band, ctx.flat_band + 1)
    flat_eigs = (ms[:, None] ** 2 + ms[None, :] ** 2).ravel()
    flat_fit = heat_trace_fit(flat_eigs).b0
    flat_ok = abs(flat_quad - math.pi) <= tol_flat and abs(flat_fit - math.pi) <= tol_flat
    # perturbed default: three routes pairwise within 5 percent
    wc = weyl_constant_closed_form(ctx.cd)
    closed = wc.slope
    quad = heat_coefficient(0, laplace_symbol(ctx.cd)).value
    fit = heat_trace_fit(ctx.perturbed_spectrum).b0
    gaps = {
        "quad_vs_closed": abs(quad - closed) / closed,
        "fit_vs_closed": abs(fit - closed) / closed,
        "quad_vs_fit": abs(quad - fit) / max(abs(fit), 1e-30),
    }
    pert_ok = all(g <= tol_pair for g in gaps.values())
    details = {
        "flat_quadrature": flat_quad, "flat_fit": flat_fit,
        "flat_tolerance_abs": tol_flat,
        "perturbed": {"quadrature": quad, "fit": fit, "closed_form": closed},
        "pairwise_gaps": gaps, "pairwise_tolerance": tol_pair,
    }
    return CriterionResult(4, "heat coefficient three-route agreement",
                           flat_ok and pert_ok, details, time.time() - t0)


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol = ctx.tol("residue_anchor")
    p = classicalize_resolvent(1.0, TAU_I, depth=3, angle=ctx.angle)
    err = abs(residue(p) - 2.0 * math.pi)
    details = {"residue": residue(p).real, "target": 2.0 * math.pi,
               "abs_error": err, "tolerance": tol}
    return CriterionResult(5, "residue anchor res((1+flat)^{-1}) = 2 pi",
                           err <= tol, details, time.time() - t0)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol_val = ctx.tol("dixmier_anchor")
    tol_drift = ctx.tol("dixmier_drift")
    mu = resolvent_mu_disk(1.0, 1.0e6)
    est = dixmier_estimate(DixmierData(mu))
    rel = abs(est.value - math.pi) / math.pi
    ok = rel <= tol_val and est.drift <= tol_drift
    details = {"value": est.value, "target": math.pi, "rel_error": rel,
               "drift": est.drift, "cesaro": est.cesaro,
               "tolerances": {"value": tol_val, "drift": tol_drift},
               "n_values": est.n_values}
    return CriterionResult(6, "Dixmier anchor on (1+flat)^{-1}", ok, details,
                           time.time() - t0)


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    half_tol = ctx.tol("connes_ratio")
    lo, hi = 0.5 * (1.0 - half_tol), 0.5 * (1.0 + half_tol)
    kinv2 = ctx.cd.k_inv2.trimmed(1e-13)
    p = GradedSymbol(ctx.angle, -2, 1, {-2: {0: kinv2}})
    rep, caught = counted_connes_trace_check(p, BasisWindow(ctx.bandwidth))
    ok = lo <= rep.ratio <= hi
    details = {"residue": rep.residue, "dixmier": rep.dixmier.value,
               "ratio": rep.ratio, "band": [lo, hi],
               "drift": rep.dixmier.drift, "bandwidth": ctx.bandwidth,
               "warnings": caught}
    return CriterionResult(7, "Connes trace theorem at desk scale", ok, details,
                           time.time() - t0)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tol = ctx.tol("parametrix_layers")
    ls = trimmed_symbol_data(laplace_symbol(ctx.cd), 1e-10)
    res = parametrix_residual(ls, lam=-1.0 + 3.0j, window=BasisWindow(6))
    ok = res[-1] <= tol and res[-2] <= tol
    details = {"order_0": res[0], "order_m1": res[-1], "order_m2": res[-2],
               "tolerance": tol}
    return CriterionResult(8, "parametrix identity layers", ok, details,
                           time.time() - t0)


def _identity_suite(ctx: AcceptanceContext, cases: int = 200):
    """Randomized algebraic identities; returns {name: worst deviation}."""
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
    for _ in range(cases):
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
    for _ in range(cases):
        p = PolySymbol(angle, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))):
                alg.random_element(rng, 2, 3, angle=angle)
        })
        a = alg.random_element(rng, 3, angle=angle)
        b = alg.random_element(rng, 3, angle=angle)
        lhs = inner_product(apply_op(p, a), b)
        rhs = inner_product(a, apply_op(adjoint_poly(p), b))
        track("adjoint_pairing", abs(lhs - rhs))
    for _ in range(cases):
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


def criterion_9(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    worst = _identity_suite(ctx)
    results = {}
    ok = True
    for name, tol in IDENTITY_TOLERANCES.items():
        eff = ctx.tol(tol)
        good = worst[name] <= eff
        ok = ok and good
        results[name] = {"worst": worst[name], "tolerance": eff, "passed": good}
    return CriterionResult(9, "algebraic invariant suite (200 cases each)", ok,
                           results, time.time() - t0)


def criterion_10(ctx: AcceptanceContext) -> CriterionResult:
    t0 = time.time()
    tols = {16: ctx.tol(0.01), 24: ctx.tol(0.003)}
    details = {}
    ok = True
    for N, tol in tols.items():
        w = BasisWindow(N)
        op, gm = gram_laplacian_matrix(ctx.cd, w)
        pencil = generalized_spectrum(op, gm).eigenvalues
        direct = hermitian_spectrum(perturbed_laplacian_matrix(ctx.cd, w)).eigenvalues
        # both constructions share the constants kernel; compare the next ten
        kernel_ok = abs(pencil[0]) < 1e-8 and abs(direct[0]) < 1e-8
        rel = np.abs(pencil[1:11] - direct[1:11]) / np.abs(direct[1:11])
        good = kernel_ok and float(rel.max()) <= tol
        ok = ok and good
        details[f"N_{N}"] = {
            "max_rel_diff": float(rel.max()), "tolerance": tol,
            "kernel": [float(pencil[0]), float(direct[0])], "passed": good,
        }
    return CriterionResult(10, "cross-construction spectrum (pencil vs K D K)",
                           ok, details, time.time() - t0)


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
)


def run_all(ctx: AcceptanceContext | None = None, selection=None):
    """Run the selected criteria (all by default) and return their results."""
    ctx = ctx or AcceptanceContext()
    chosen = selection or range(1, len(ALL_CRITERIA) + 1)
    results = []
    for ident in chosen:
        results.append(ALL_CRITERIA[ident - 1](ctx))
    return results


def format_tap(results) -> str:
    lines = [f"1..{len(results)}"]
    for i, r in enumerate(results, start=1):
        status = "ok" if r.passed else "not ok"
        lines.append(f"{status} {i} - criterion {r.ident}: {r.name} ({r.seconds:.1f}s)")
    return "\n".join(lines)
