"""The benchmark workloads: set-up, ops and the checks on every result.

An op is one verified result.  It calls the public functions of the library
step by step (the way ``acceptance`` and ``cli`` combine them), checks the
acceptance tolerance it mirrors, and returns the reported numbers so that
those above rounding level can be compared with the seed's values.  An op
calls ``lap()`` between its steps; the runner times each piece between laps
on its own.
Every workload runs every op family (weyl, connes, pencil, heat,
identities), each at the size that suits the workload's purpose, so that
every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import identities as ident

FAMILIES = ("weyl", "connes", "pencil", "heat", "identities")


class CheckFailed(AssertionError):
    """An op's result missed the tolerance it mirrors."""


@dataclass(frozen=True)
class WorkloadSpec:
    why: str
    h: tuple            # ((m, n, amplitude), ...): h = sum a (U^m V^n + its adjoint)
    tau: tuple
    weyl_n: int | None           # perturbed finite section, None: none
    flat_taus: tuple             # flat lattice Weyl anchors, band 400
    connes_n: int                # k^-2 symbol section
    pencil_ns: tuple
    heat_ops: tuple              # heat ops on the perturbed data, of b2, parametrix
    identities: ident.IdentitySpec
    symbolic_anchors: bool = False  # residue and Dixmier anchors (criteria 5, 6)
    reps: dict = field(default_factory=dict)  # op name -> repetitions per pass


RANK1 = ((1, 0, 0.4),)
WEAK_RANK1 = ((1, 0, 0.1),)  # a narrower k^2: heat b2 on a smaller window
GENERIC = ((1, 0, 0.3), (0, 1, 0.2))
LIGHT_IDENTITIES = ident.IdentitySpec(cases=8, kms_band=2)

WORKLOADS = {
    "dense-rank1": WorkloadSpec(
        why="shipped perturbed preset (rank-1 h, tau = i) at N = 16: dense sections "
            "whose coupling lives on Z x {0}, where lattice-orbit blocks would act",
        h=RANK1, tau=(0.0, 1.0), weyl_n=16, flat_taus=((0.0, 1.0),), connes_n=16,
        pencil_ns=(10,), heat_ops=(), identities=LIGHT_IDENTITIES,
        reps={"weyl.flat": 5},
    ),
    "dense-generic": WorkloadSpec(
        why="h spanning Z^2 with tau = 0.3+0.8i at N = 16: complex dense sections that "
            "a structure-aware path must leave on the dense fallback",
        h=GENERIC, tau=(0.3, 0.8), weyl_n=16, flat_taus=((0.3, 0.8),), connes_n=16,
        pencil_ns=(12,), heat_ops=("parametrix",), identities=LIGHT_IDENTITIES,
        reps={"weyl.flat": 5, "heat.flat": 3},
    ),
    "symbolic": WorkloadSpec(
        why="identity suite, symbol calculus, heat b2 and parametrix, flat anchors: pure-Python "
            "NcElement arithmetic, no gns section with N >= 16",
        h=WEAK_RANK1, tau=(0.0, 1.0), weyl_n=None,
        flat_taus=((0.0, 1.0), (0.0, 2.0), (1.0, 1.0)), connes_n=16,
        pencil_ns=(6, 8), heat_ops=("b2", "parametrix"),
        identities=ident.IdentitySpec(cases=15, kms_band=2),
        symbolic_anchors=True,
        reps={"weyl.flat": 2, "pencil.N6": 4, "pencil.N8": 2, "heat.b2": 2, "identities": 2},
    ),
    # the self-test size: every op family, small enough for seconds
    "tiny": WorkloadSpec(
        why="self-test size",
        h=RANK1, tau=(0.0, 1.0), weyl_n=10, flat_taus=((0.0, 1.0),), connes_n=16,
        pencil_ns=(4, 6), heat_ops=(), identities=ident.IdentitySpec(cases=3, kms_band=2),
        symbolic_anchors=True,
    ),
}

@dataclass
class Op:
    name: str
    family: str
    run: object          # callable(lap) -> {key: value}; raises CheckFailed
    exact: dict          # key -> scale: compared with the seed within 1e-9 * max(|ref|, scale)
    reps: int = 1


class Check:
    """Collects the tolerance checks of one op."""

    def __init__(self):
        self.failures = []

    def le(self, label, value, bound):
        if not float(value) <= float(bound):
            self.failures.append(f"{label} = {value!r} > {bound!r}")

    def done(self):
        if self.failures:
            raise CheckFailed("; ".join(self.failures))


# ---------------------------------------------------------------------------
# set-up: the Weyl factor, the closed-form reference and the first BLAS call

@dataclass
class Setup:
    cd: object
    flat_cd: object
    slope: float           # closed-form counting slope pi t(k^-2) / Im tau


def build_h(nct, terms):
    alg = nct.algebra
    h = alg.zero(alg.GOLDEN)
    for m, n, amp in terms:
        mono = alg.make_monomial(m, n, 1.0, alg.GOLDEN)
        h = alg.add(h, alg.scale(amp, alg.add(mono, alg.adjoint(mono))))
    return h


def setup(nct, spec: WorkloadSpec) -> Setup:
    alg = nct.algebra
    tau = alg.ModuliPoint(*spec.tau)
    cd = alg.ConformalData.build(tau, build_h(nct, spec.h), pad=16)
    if len(spec.h) == 1:
        wc = nct.spectral.weyl_constant_closed_form(cd)
        slope, gap = wc.slope, wc.route_gap
    else:
        # For h spanning Z^2 the Neumann route of weyl_constant_closed_form takes
        # 30-110 s; its matrix route is checked against t(e^{-h}) read off k^-2.
        t = nct.gns.trace_kinv2_matrix_route(cd, pad=8)
        gap = abs(t - alg.trace_t(cd.k_inv2).real)
        slope = math.pi / tau.im * t
    if not gap <= 1e-10:
        raise CheckFailed(f"closed-form routes for t(k^-2) differ by {gap:.3e}")
    flat_cd = alg.ConformalData.build(alg.ModuliPoint(0.0, 1.0), alg.zero(alg.GOLDEN), pad=2)
    # first BLAS calls: start the thread pool before anything is timed
    a = np.random.default_rng(0).standard_normal((384, 384))
    np.linalg.eigvalsh(a @ a.T)
    return Setup(cd, flat_cd, slope)


# ---------------------------------------------------------------------------
# ops

def ops(nct, spec: WorkloadSpec, st: Setup, cases) -> list:
    alg, gns, sym, heat, spc = nct.algebra, nct.gns, nct.symbols, nct.heat, nct.spectral
    cd = st.cd
    out: list = []

    def add(name, family, fn, exact):
        out.append(Op(name, family, fn, exact, spec.reps.get(name, 1)))

    if spec.weyl_n is not None:
        N = spec.weyl_n

        def weyl_perturbed(lap):
            mat = gns.perturbed_laplacian_matrix(cd, gns.BasisWindow(N))
            lap()
            spec_ = gns.hermitian_spectrum(mat).eigenvalues
            del mat
            lap()
            base = spc.CountingData(spec_, N)
            ceiling = spc.adaptive_counting_ceiling(base)
            fit = spc.weyl_slope(spc.CountingData(spec_, N, explicit_ceiling=ceiling,
                                                  note="adaptive trusted ceiling"))
            b0 = heat.heat_trace_fit(spec_).b0
            c = Check()
            c.le("slope rel error", abs(fit.slope - st.slope) / st.slope, 0.10)
            c.le("heat-trace fit b0 rel error", abs(b0 - st.slope) / st.slope, 0.05)
            c.done()
            return {"slope": fit.slope, "ceiling": ceiling, "b0_fit": b0}

        add(f"weyl.N{N}", "weyl", weyl_perturbed, {"slope": 0, "ceiling": 0, "b0_fit": 0})

    def weyl_flat(lap):
        res = {}
        c = Check()
        for re_, im_ in spec.flat_taus:
            tau = alg.ModuliPoint(re_, im_)
            fit = spc.weyl_slope(spc.lattice_counting_data(tau, 400))
            target = math.pi / im_
            c.le(f"flat slope rel error tau={re_}+{im_}i",
                 abs(fit.slope - target) / target, 0.03)
            res[f"slope_{re_}_{im_}"] = fit.slope
            lap()
        c.done()
        return res

    add("weyl.flat", "weyl", weyl_flat,
        {f"slope_{re_}_{im_}": 0 for re_, im_ in spec.flat_taus})

    Nc = spec.connes_n

    def connes_section(lap):
        kinv2 = cd.k_inv2.trimmed(1e-13)
        p = sym.GradedSymbol(cd.angle, -2, 1, {-2: {0: kinv2}})
        res = sym.residue(p).real
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", sym.OriginRegularization)
            mat = sym.finite_section_of_op(p, gns.BasisWindow(Nc)).entries
        regularized = sum(issubclass(w.category, sym.OriginRegularization) for w in caught)
        lap()
        mu = spc.singular_values_descending(mat)
        del mat
        lap()
        keep = max(1000, int(mu.size * 0.75))
        est = spc.dixmier_estimate(spc.DixmierData(mu[:keep]))
        ratio = est.value / res
        c = Check()
        c.le("Connes ratio distance from 1/2", abs(ratio - 0.5), 0.5 * 0.15)
        c.done()
        return {"residue": res, "dixmier": est.value, "ratio": ratio, "drift": est.drift,
                "origin_regularization": regularized}

    add(f"connes.N{Nc}", "connes", connes_section,
        {"residue": 0, "dixmier": 0, "ratio": 0, "drift": 1})

    if spec.symbolic_anchors:
        def connes_anchor(lap):
            tau_i = alg.ModuliPoint(0.0, 1.0)
            p = sym.classicalize_resolvent(1.0, tau_i, depth=3, angle=alg.GOLDEN)
            res = sym.residue(p).real
            lap()
            est = spc.dixmier_estimate(spc.DixmierData(spc.resolvent_mu_disk(1.0, 1.0e6)))
            c = Check()
            c.le("residue anchor error", abs(res - 2.0 * math.pi), 1e-10)
            c.le("Dixmier anchor rel error", abs(est.value - math.pi) / math.pi, 0.05)
            c.le("Dixmier anchor drift", est.drift, 0.02)
            c.le("flat Connes ratio distance from 1/2", abs(est.value / res - 0.5), 0.5 * 0.15)
            c.done()
            return {"residue": res, "dixmier": est.value, "drift": est.drift}

        add("connes.anchor", "connes", connes_anchor, {"residue": 0, "dixmier": 0, "drift": 1})

    for Np in spec.pencil_ns:
        def pencil(lap, Np=Np):
            w = gns.BasisWindow(Np)
            op, gm = gns.gram_laplacian_matrix(cd, w)
            lap()
            pen = gns.generalized_spectrum(op, gm).eigenvalues
            del op, gm
            lap()
            mat = gns.perturbed_laplacian_matrix(cd, w)
            lap()
            direct = gns.hermitian_spectrum(mat).eigenvalues
            del mat
            rel = np.abs(pen[1:11] - direct[1:11]) / np.abs(direct[1:11])
            c = Check()
            c.le("pencil kernel", abs(pen[0]), 1e-8)
            c.le("direct kernel", abs(direct[0]), 1e-8)
            c.le("pencil vs K D K max rel diff", float(rel.max()), 0.003 if Np >= 24 else 0.01)
            c.done()
            return {f"eig_{i}": float(direct[i]) for i in range(1, 11)}

        add(f"pencil.N{Np}", "pencil", pencil, {f"eig_{i}": 0 for i in range(1, 11)})

    def parametrix(c, cdata, label):
        ls = heat.trimmed_symbol_data(heat.laplace_symbol(cdata), 1e-10)
        # window 4 where criterion 8 uses 6: 0.1 s instead of 0.7 s
        res = heat.parametrix_residual(ls, lam=-1.0 + 3.0j, window=gns.BasisWindow(4))
        c.le(f"{label} parametrix order -1", res[-1], 1e-8)
        c.le(f"{label} parametrix order -2", res[-2], 1e-8)

    def heat_b2(lap):
        # 64 contour nodes, as `nctorus heat` uses for b2; window pad 2 instead of
        # 4 (window 6 for the symbolic workload): 0.4 s instead of 1 s
        q = heat.heat_coefficient(2, heat.laplace_symbol(cd), contour=heat.ContourSpec(nodes=64),
                                  window_pad=2)
        c = Check()
        c.le("|b2| (Gauss-Bonnet value 0)", abs(q.value), 1e-7)
        c.done()
        return {"b2": q.value}

    def heat_parametrix(lap):
        c = Check()
        parametrix(c, cd, "perturbed")
        c.done()
        return {}

    def heat_flat(lap):
        quad = heat.heat_coefficient(0, heat.laplace_symbol(st.flat_cd)).value
        lap()
        b2 = heat.heat_coefficient(2, heat.laplace_symbol(st.flat_cd)).value
        lap()
        ms = np.arange(-400, 401)
        fit = heat.heat_trace_fit((ms[:, None] ** 2 + ms[None, :] ** 2).ravel()).b0
        lap()
        c = Check()
        c.le("flat b0 quadrature error", abs(quad - math.pi), 0.01)
        c.le("flat b0 fit error", abs(fit - math.pi), 0.01)
        c.le("flat |b2|", abs(b2), 1e-7)
        parametrix(c, st.flat_cd, "flat")
        c.done()
        return {"b0": quad, "b0_fit": fit, "b2": b2}

    perturbed_heat = {"b2": (heat_b2, {"b2": 1}), "parametrix": (heat_parametrix, {})}
    for kind in spec.heat_ops:
        fn, exact = perturbed_heat[kind]
        add(f"heat.{kind}", "heat", fn, exact)
    add("heat.flat", "heat", heat_flat, {"b0": 0, "b0_fit": 0, "b2": 1})

    def identities(lap):
        worst = ident.worst_deviations(nct, cases, lap)
        c = Check()
        for name, tol in ident.TOLERANCES.items():
            c.le(f"identity {name}", worst[name], tol)
        c.done()
        return worst

    add("identities", "identities", identities, {})
    missing = set(FAMILIES) - {op.family for op in out}
    if missing:
        raise ValueError(f"workload lacks op families {sorted(missing)}")
    return out
