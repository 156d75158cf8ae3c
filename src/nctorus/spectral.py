"""Eigenvalue counting, Weyl slopes, Dixmier traces and the residue comparison.

The counting function of a finite-section spectrum is trusted only below a
validity ceiling (a configured fraction of the largest computed eigenvalue,
guarding against window-edge corruption).  Dixmier traces are estimated as the
log-slope of partial sums of the decreasing singular values, with the Cesaro
mean of the classical construction reported as a secondary estimate and a
dyadic drift diagnostic standing in for the choice of limiting state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConformalData, ModuliPoint, invert_positive, mul, trace_t
from .gns import (
    BasisWindow,
    block_stacks,
    coupling_blocks,
    quadratic_form_values,
    trace_kinv2_matrix_route,
)
from .symbols import GradedSymbol, finite_section_of_op, residue


class SpectralError(ValueError):
    """Invalid fit window, insufficient data, or inconsistent inputs."""


DEFAULT_CEILING_FRACTION = 0.25


@dataclass(frozen=True)
class CountingData:
    """Ascending nonnegative eigenvalues with a trusted counting ceiling.

    The ceiling defaults to ceiling_fraction of the largest eigenvalue; an
    explicit (stricter) ceiling may be supplied with a rationale, e.g. the box
    containment radius of an analytic lattice spectrum.
    """

    eigenvalues: np.ndarray
    source_bandwidth: int
    ceiling_fraction: float = DEFAULT_CEILING_FRACTION
    explicit_ceiling: float | None = None
    note: str = ""
    lambda_max: float = field(init=False)

    def __post_init__(self):
        ev = np.sort(np.asarray(self.eigenvalues, dtype=float))
        if ev.size == 0:
            raise SpectralError("empty spectrum")
        if ev[0] < -1e-8:
            raise SpectralError(f"negative eigenvalue {ev[0]:.3e} in counting data")
        cap = self.ceiling_fraction * float(ev[-1])
        ceiling = cap
        if self.explicit_ceiling is not None:
            if self.explicit_ceiling > cap * (1.0 + 1e-12):
                raise SpectralError(
                    f"explicit ceiling {self.explicit_ceiling:g} above the "
                    f"{self.ceiling_fraction:g} fraction cap {cap:g}"
                )
            ceiling = float(self.explicit_ceiling)
        object.__setattr__(self, "eigenvalues", np.clip(ev, 0.0, None))
        object.__setattr__(self, "lambda_max", ceiling)


def counting_function(cd: CountingData, lam: float) -> int:
    """Number of eigenvalues strictly below lam (only below the ceiling)."""
    if lam > cd.lambda_max * (1.0 + 1e-12):
        raise SpectralError(
            f"lambda {lam:g} beyond the validity ceiling {cd.lambda_max:g}"
        )
    return int(np.searchsorted(cd.eigenvalues, lam, side="left"))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    window: tuple
    n_points: int
    intercept: float = 0.0


def weyl_slope(cd: CountingData, fit_window=None, n_grid: int = 64) -> SlopeFit:
    """Least-squares slope of the counting function over a log-spaced grid.

    An intercept absorbs the subleading counting terms; the standard error is
    the usual residual-based estimate for the slope coefficient.
    """
    if fit_window is None:
        fit_window = (cd.lambda_max / 50.0, cd.lambda_max)
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not 0.0 < lo < hi:
        raise SpectralError("empty or inverted fit window")
    if hi > cd.lambda_max * (1.0 + 1e-12):
        raise SpectralError("fit window exceeds the validity ceiling")
    lams = np.geomspace(lo, hi, n_grid)
    counts = np.searchsorted(cd.eigenvalues, lams, side="left").astype(float)
    design = np.stack([np.ones_like(lams), lams], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, counts, rcond=None)
    resid = counts - design @ coef
    dof = max(len(lams) - 2, 1)
    var = np.sum(resid ** 2) / dof
    sxx = np.sum((lams - lams.mean()) ** 2)
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return SlopeFit(float(coef[1]), stderr, (lo, hi), n_grid, float(coef[0]))


def adaptive_counting_ceiling(cd: CountingData, rel_band: float = 0.02,
                              n_grid: int = 200) -> float:
    """Data-driven trusted ceiling for matrix-backed spectra.

    The slope is first fit on the clearly trusted low range; the ceiling is
    the last grid point before the staircase departs from that line by more
    than rel_band (relative), i.e. where finite-section undercounting sets in.
    Always at most the configured fraction ceiling.
    """
    cap = cd.lambda_max
    probe = weyl_slope(cd, (cap / 50.0, cap / 5.0))
    lams = np.geomspace(cap / 5.0, cap, n_grid)
    counts = np.searchsorted(cd.eigenvalues, lams, side="left").astype(float)
    pred = probe.intercept + probe.slope * lams
    bad = np.abs(counts - pred) > rel_band * np.maximum(counts, 1.0)
    if not np.any(bad):
        return cap
    first_bad = int(np.argmax(bad))
    if first_bad == 0:
        return float(lams[0])
    return float(lams[first_bad - 1])


@dataclass(frozen=True)
class WeylConstant:
    """Closed-form counting slope pi/Im(tau) t(k^{-2}) and the volume."""

    slope: float
    volume: float
    trace_kinv2: float
    route_gap: float


def weyl_constant_closed_form(cdata: ConformalData, pad: int = 8) -> WeylConstant:
    """The slope via two functional-calculus routes for t(k^{-2}).

    Route one inverts the left-multiplication section of k^2 and reads the
    vacuum entry; route two sums the Neumann series of the inverse in the
    algebra.  Their gap is reported (and should sit at rounding level).
    """
    t_matrix = trace_kinv2_matrix_route(cdata, pad=pad)
    k2 = mul(cdata.k, cdata.k).trimmed(1e-15)
    cap = k2.support_bandwidth() + 2 * pad
    t_neumann = float(trace_t(invert_positive(k2, bandwidth_cap=cap)).real)
    gap = abs(t_matrix - t_neumann)
    slope = math.pi / cdata.tau.im * t_matrix
    vol = 4.0 * math.pi ** 2 / cdata.tau.im * t_matrix
    return WeylConstant(slope, vol, t_matrix, gap)


def lattice_eigenvalues(tau: ModuliPoint, band: int, q_max: float | None = None) -> np.ndarray:
    """Sorted values of the quadratic form on the integer lattice box
    |m|,|n| <= band, optionally restricted to Q <= q_max."""
    ms = np.arange(-band, band + 1)
    q = quadratic_form_values(tau, ms[:, None], ms[None, :]).ravel()
    if q_max is not None:
        q = q[q <= q_max]
    return np.sort(q)


def box_containment_ceiling(tau: ModuliPoint, band: int) -> float:
    """Largest lambda whose sublevel ellipse Q <= lambda fits in the index box.

    The ellipse extends to |m| = sqrt(lambda |tau|^2) / Im(tau) and
    |n| = sqrt(lambda) / Im(tau); beyond containment the box spectrum
    undercounts and the slope fit would be biased low.
    """
    det = tau.im * tau.im
    stretch = max(tau.abs2, 1.0) / det
    return band * band / stretch


def lattice_disk_eigenvalues(tau: ModuliPoint, q_max: float) -> np.ndarray:
    """Sorted values Q <= q_max over the whole lattice, read off the smallest
    index box whose containment ceiling reaches q_max."""
    band = math.isqrt(int(q_max / box_containment_ceiling(tau, 1))) + 2
    return lattice_eigenvalues(tau, band, q_max=q_max)


def lattice_counting_data(tau: ModuliPoint, band: int,
                          margin: float = 0.95) -> CountingData:
    """Counting data for the analytic flat spectrum with the containment ceiling."""
    eigs = lattice_eigenvalues(tau, band)
    ceiling = min(margin * box_containment_ceiling(tau, band),
                  DEFAULT_CEILING_FRACTION * float(eigs[-1]))
    return CountingData(
        eigs, band, explicit_ceiling=ceiling,
        note="ceiling = box containment radius of the sublevel ellipse",
    )


# ---------------------------------------------------------------------------
# Dixmier trace estimation

@dataclass(frozen=True)
class DixmierData:
    """Decreasing positive sequence with its partial sums."""

    mu: np.ndarray
    partial_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if np.any(np.diff(mu) > 1e-12):
            raise SpectralError("singular values must be non-increasing")
        if mu.size and mu[-1] < -1e-15:
            raise SpectralError("singular values must be nonnegative")
        object.__setattr__(self, "mu", np.clip(mu, 0.0, None))
        object.__setattr__(self, "partial_sums", np.cumsum(self.mu))


@dataclass(frozen=True)
class DixmierEstimate:
    value: float
    drift: float
    cesaro: float
    vanishing: bool
    fit_window: tuple
    n_values: int


def _log_slope(sums: np.ndarray, n_lo: int, n_hi: int, n_grid: int = 48) -> float:
    ns = np.unique(np.geomspace(n_lo, n_hi, n_grid).astype(int))
    ys = sums[ns - 1]
    xs = np.log(ns.astype(float))
    design = np.stack([np.ones_like(xs), xs], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[1])


def dixmier_estimate(dd: DixmierData, vanish_tol: float = 0.05) -> DixmierEstimate:
    """Log-slope of the partial sums over the trailing half of the data.

    value: slope of Trace_N against log N for N in [sqrt(M), M] (the trailing
    half in log scale); drift: relative change of the slope between the last
    two dyadic windows, a stand-in convergence diagnostic for the limiting
    state; cesaro: the Cesaro mean of Trace_r / log r at the endpoint.
    """
    M = dd.mu.size
    if M < 1000:
        raise SpectralError(f"need at least 1000 singular values, got {M}")
    sums = dd.partial_sums
    n_lo = max(2, int(math.sqrt(M)))
    value = _log_slope(sums, n_lo, M)
    s1 = _log_slope(sums, max(2, M // 4), M // 2)
    s2 = _log_slope(sums, M // 2, M)
    drift = abs(s2 - s1) / abs(s2) if s2 != 0.0 else math.inf
    # Cesaro mean of Trace_r / log r over the multiplicative group, from r = e
    ns = np.unique(np.geomspace(math.e, M, 512))
    tr = np.interp(ns, np.arange(1, M + 1, dtype=float), sums)
    g = tr / np.log(ns)
    u = np.log(ns)
    cesaro = float(np.trapezoid(g, u) / (u[-1] - u[0]))
    vanishing = abs(value) < vanish_tol
    return DixmierEstimate(value, drift, cesaro, vanishing, (n_lo, M), M)


def resolvent_mu_disk(c0: float, q_max: float, tau: ModuliPoint = ModuliPoint(0.0, 1.0)) -> np.ndarray:
    """Decreasing eigenvalues (c0 + Q(m,n))^{-1} over the lattice disk Q <= q_max."""
    q = lattice_disk_eigenvalues(tau, q_max)
    return np.sort(1.0 / (c0 + q))[::-1]


# ---------------------------------------------------------------------------
# Connes trace comparison

@dataclass(frozen=True)
class ConnesReport:
    residue: float
    dixmier: DixmierEstimate
    ratio: float
    bandwidth: int
    tail_fraction: float


def singular_values_descending(mat: np.ndarray) -> np.ndarray:
    """Singular values of square mat via the Gram matrix of each coupling block."""
    if np.iscomplexobj(mat) and not np.any(mat.imag):
        mat = np.ascontiguousarray(mat.real)
    ev = np.concatenate([
        np.linalg.eigvalsh(b.conj().swapaxes(1, 2) @ b).ravel()
        for _, (b,) in block_stacks(coupling_blocks(mat), mat)
    ])
    return np.sqrt(np.clip(np.sort(ev), 0.0, None))[::-1]


def connes_trace_check(p: GradedSymbol, w: BasisWindow,
                       tail_fraction: float = 0.25) -> ConnesReport:
    """Dixmier estimate of the operator of an order -2 symbol against half its
    residue.

    The finite section's smallest singular values sit in the window-corner
    region where the box truncation distorts the counting, so the trailing
    tail_fraction of the sequence is excluded before the log-slope fit (the
    same guard as the counting-side validity ceiling).
    """
    if p.top_order != -2:
        raise SpectralError("the trace comparison needs a symbol of order -2")
    res = residue(p).real
    mat = finite_section_of_op(p, w).entries
    mu = singular_values_descending(mat)
    keep = max(1000, int(mu.size * (1.0 - tail_fraction)))
    est = dixmier_estimate(DixmierData(mu[:keep]))
    ratio = est.value / res if res != 0.0 else math.inf
    return ConnesReport(res, est, ratio, w.bandwidth, tail_fraction)


def perturbed_resolvent_check(eigenvalues, cdata: ConformalData) -> dict:
    """Named preset: Dixmier estimate of (1 + perturbed Laplacian)^{-1} against
    the closed form pi phi(1) / Im(tau)."""
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    mu = np.sort(1.0 / (1.0 + np.clip(eigs, 0.0, None)))[::-1]
    keep = max(1000, int(mu.size * 0.75))
    est = dixmier_estimate(DixmierData(mu[:keep]))
    closed = weyl_constant_closed_form(cdata).slope
    return {
        "dixmier": est,
        "closed_form": closed,
        "ratio": est.value / closed if closed else math.inf,
    }
