"""Estimators on spectra: eigenvalue counting, Weyl slopes, Dixmier traces.

Nothing here builds a symbol; acceptance composes these into the claims.
The counting function of a finite-section spectrum is trusted only below a
validity ceiling (a configured fraction of the largest computed eigenvalue,
guarding against window-edge corruption).  The flat box is counted row by
row, its sorted spectrum built only for spectrum.csv.  Dixmier traces are
estimated as the log-slope of partial sums of the decreasing singular values,
with the Cesaro mean of the classical construction reported as a secondary
estimate and a dyadic drift diagnostic standing in for the choice of
limiting state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ConformalData, ModuliPoint, trace_t
from .gns import (
    Runs,
    _as_real_if_possible,
    as_csr,
    ascending,
    block_spectrum,
    quadratic_form_values,
    runs_of,
    trace_kinv2_matrix_route,
)


class SpectralError(ValueError):
    """Invalid fit window, insufficient data, or inconsistent inputs."""


DEFAULT_CEILING_FRACTION = 0.25


@dataclass(frozen=True)
class CountingData:
    """Ascending nonnegative eigenvalues with a trusted counting ceiling.

    The ceiling defaults to DEFAULT_CEILING_FRACTION of the largest
    eigenvalue; an explicit (stricter) ceiling may be supplied with a
    rationale, e.g. the box containment radius of an analytic lattice spectrum.
    """

    eigenvalues: np.ndarray
    source_bandwidth: int
    explicit_ceiling: float | None = None
    note: str = ""
    lambda_max: float = field(init=False)

    def __post_init__(self):
        ev = ascending(np.array(self.eigenvalues, dtype=float))  # a copy we own
        if ev.size == 0:
            raise SpectralError("empty spectrum")
        if ev[0] < -1e-8:
            raise SpectralError(f"negative eigenvalue {ev[0]:.3e} in counting data")
        cap = DEFAULT_CEILING_FRACTION * float(ev[-1])
        ceiling = cap
        if self.explicit_ceiling is not None:
            if self.explicit_ceiling > cap * (1.0 + 1e-12):
                raise SpectralError(
                    f"explicit ceiling {self.explicit_ceiling:g} above the "
                    f"{DEFAULT_CEILING_FRACTION:g} fraction cap {cap:g}"
                )
            ceiling = float(self.explicit_ceiling)
        object.__setattr__(self, "eigenvalues", np.clip(ev, 0.0, None, out=ev))
        object.__setattr__(self, "lambda_max", ceiling)

    def count(self, lams) -> np.ndarray:
        """The number of eigenvalues below each lambda of lams."""
        return np.searchsorted(self.eigenvalues, lams, side="left")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float
    window: tuple
    n_points: int
    intercept: float = 0.0


def weyl_slope(cd: CountingData | LatticeCountingData, fit_window=None) -> SlopeFit:
    """Least-squares slope of the counting function over a log-spaced grid of
    64 points.

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
    lams = np.geomspace(lo, hi, 64)
    counts = cd.count(lams).astype(float)
    design = np.stack([np.ones_like(lams), lams], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, counts, rcond=None)
    resid = counts - design @ coef
    dof = max(len(lams) - 2, 1)
    var = np.sum(resid ** 2) / dof
    sxx = np.sum((lams - lams.mean()) ** 2)
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return SlopeFit(float(coef[1]), stderr, (lo, hi), lams.size, float(coef[0]))


def adaptive_counting_ceiling(cd: CountingData) -> float:
    """Data-driven trusted ceiling for matrix-backed spectra.

    The slope is first fit on the clearly trusted low range; the ceiling is
    the last point of a 200-point grid before the staircase departs from that
    line by more than 2% (relative), i.e. where finite-section undercounting
    sets in.  Always at most the configured fraction ceiling.
    """
    cap = cd.lambda_max
    probe = weyl_slope(cd, (cap / 50.0, cap / 5.0))
    lams = np.geomspace(cap / 5.0, cap, 200)
    counts = cd.count(lams).astype(float)
    pred = probe.intercept + probe.slope * lams
    bad = np.abs(counts - pred) > 0.02 * np.maximum(counts, 1.0)
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


def weyl_constant_closed_form(cdata: ConformalData) -> WeylConstant:
    """The slope pi/Im(tau) t(k^{-2}) and the volume, with t(k^{-2}) by the
    matrix route: the vacuum entry of the inverse of the section of k k,
    k = e^{h/2}.  route_gap is its distance to t(e^{-h}), read off the
    separately exponentiated k^{-2} of cdata (it should sit at rounding level).
    """
    t_matrix = trace_kinv2_matrix_route(cdata)
    gap = abs(t_matrix - trace_t(cdata.k_inv2).real)
    slope = math.pi / cdata.tau.im * t_matrix
    vol = 4.0 * math.pi ** 2 / cdata.tau.im * t_matrix
    return WeylConstant(slope, vol, t_matrix, gap)


def _half_box(tau: ModuliPoint, band: int, q_max: float | None) -> np.ndarray:
    """Sorted Q over the half box {n > 0} and {n = 0, m > 0} of |m|,|n| <=
    band, optionally restricted to Q <= q_max.  The rounded Q(-m,-n) equals
    Q(m,n) bit for bit, so the full box is the origin's 0 and each of these
    values twice."""
    ms = np.arange(-band, band + 1)
    # rows n = 0..band; the first band + 1 entries are n = 0, m <= 0
    q = quadratic_form_values(tau, ms[None, :], ms[band:, None]).ravel()[band + 1:]
    if q_max is not None:
        q = q[q <= q_max]
    q.sort()
    return q


def lattice_eigenvalues(tau: ModuliPoint, band: int) -> np.ndarray:
    """Sorted values of the quadratic form on the integer lattice box
    |m|,|n| <= band; a negative band raises SpectralError.

    Each half-box value is written twice after the origin's 0, and the
    result equals the sorted full box byte for byte.  The values Q <= q_max
    over the whole lattice are lattice_disk_eigenvalues.
    """
    if band < 0:
        raise SpectralError(f"lattice band must be >= 0, got {band}")
    q = _half_box(tau, band, None)
    out = np.empty(2 * q.size + 1)
    out[0] = 0.0
    out[1::2] = q
    out[2::2] = q
    return out


def box_containment_ceiling(tau: ModuliPoint, band: int) -> float:
    """Largest lambda whose sublevel ellipse Q <= lambda fits in the index box.

    The ellipse extends to |m| = sqrt(lambda |tau|^2) / Im(tau) and
    |n| = sqrt(lambda) / Im(tau); beyond containment the box spectrum
    undercounts and the slope fit would be biased low.
    """
    det = tau.im * tau.im
    stretch = max(tau.abs2, 1.0) / det
    return band * band / stretch


def _reflection_is_exact(k: int, rows: int, top: int) -> bool:
    """Whether every integer the reflected disk forms, and m^2 + k m n at
    each of its points, is below 2^53 in magnitude: |m|, |k n|, |b_n| and j
    are at most reach, so every such integer is at most 2 reach^2."""
    reach = abs(k) * rows + top + 1
    return 2 * reach * reach < 2 ** 53


def _reflected_disk(tau: ModuliPoint, k: int, rows: int, top: int, q_max: float) -> Runs:
    """The disk Q <= q_max, less the origin, as ascending Runs, from the
    representatives of the row reflection (m, n) -> (-m - k n, n), k = 2 Re(tau).

    quadratic_form_values forms the integer I = m^2 + k m n exactly and adds
    C_n = |tau|^2 n n in one rounding, so Q is the same at a point and at its
    reflection, bit for bit.  Row n is m = b_n + j, b_n = floor(-k n / 2),
    j = 1..top, where I = j^2 - j [k n odd] + I(b_n, n); I(b_n, n) is an
    integer in [-C_n, 0], so I(b_n, n) + C_n is exact (C_n < 2^53 on every
    row that reaches the disk) and adding the j part rounds once, as Q does.
    The points m > -k n / 2 of rows 1..rows stand for themselves, their
    reflections and the negatives of both (weight 4); the points
    m = -k n / 2 and the points m > 0 of row 0 for themselves and their
    negatives (weight 2).  Only the weight-4 values are sorted; the few
    weight-2 runs are merged into theirs, equal values adding weights.
    """
    n = np.arange(1, rows + 1)
    kn = k * n
    b = -kn // 2
    odd = (kn & 1).astype(bool)
    base = (b * b + kn * b) + tau.abs2 * n * n  # Q(b_n, n)
    j = np.arange(1.0, top + 1.0)
    q = np.empty((rows, top))
    lo = 0
    for sel, jpart in ((~odd, j * j), (odd, j * j - j)):
        block = q[lo:lo + np.count_nonzero(sel)]
        np.add(base[sel, np.newaxis], jpart, out=block)
        lo += block.shape[0]
    q = q.ravel()
    q = q[q <= q_max]
    q.sort()
    two = np.concatenate((base[~odd], j * j))
    four, two = runs_of(q), runs_of(np.sort(two[two <= q_max]))
    at = np.searchsorted(four.values, two.values)
    hit = at < four.values.size
    hit[hit] = four.values[at[hit]] == two.values[hit]
    mult = 4 * four.mult
    mult[at[hit]] += 2 * two.mult[hit]
    new = ~hit
    return Runs(np.insert(four.values, at[new], two.values[new]),
                np.insert(mult, at[new], 2 * two.mult[new]))


def lattice_disk_eigenvalues(tau: ModuliPoint, q_max: float) -> Runs:
    """The values Q <= q_max over the whole lattice as ascending Runs.

    When k = 2 Re(tau) is an integer and _reflection_is_exact holds, the
    disk is read off the representatives of the row reflection
    (_reflected_disk), on the rows n <= sqrt(q_max) / Im(tau) + 1 (one past
    the disk's, as the rounded quotient may fall short) and the columns
    |m + k n / 2| <= isqrt(q_max) + 1/2.  Otherwise it is read off the
    smallest index box whose containment ceiling reaches q_max, each run of
    the sorted half box counting twice.  Either way the origin is a run of 1
    at the front, and np.repeat of the runs is the sorted full disk byte for
    byte: the two reads give the same Runs.  q_max < 0 gives no run, the
    origin's included; a NaN or infinite q_max raises SpectralError.
    """
    if not math.isfinite(q_max):
        raise SpectralError(f"q_max must be finite, got {q_max}")
    if q_max < 0.0:
        return runs_of(np.empty(0))
    k = 2.0 * tau.re
    rows = int(math.sqrt(q_max) / tau.im) + 1
    top = math.isqrt(int(q_max)) + 1
    if k.is_integer() and _reflection_is_exact(int(k), rows, top):
        disk = _reflected_disk(tau, int(k), rows, top, q_max)
    else:
        band = math.isqrt(int(q_max / box_containment_ceiling(tau, 1))) + 2
        half = runs_of(_half_box(tau, band, q_max))
        disk = Runs(half.values, 2 * half.mult)
    return Runs(np.concatenate(([0.0], disk.values)), np.concatenate(([1], disk.mult)))


@dataclass(frozen=True)
class LatticeCountingData:
    """The counting function of the flat box |m|,|n| <= source_bandwidth,
    counted row by row without building its spectrum."""

    tau: ModuliPoint
    source_bandwidth: int
    lambda_max: float
    note: str

    def count(self, lams) -> np.ndarray:
        """CountingData.count on lattice_eigenvalues, bit for bit.  Row n holds
        the m between c -+ d, c = -n Re(tau), d = sqrt(lambda - n^2 Im(tau)^2),
        Q falling on m <= s = floor(c) and rising after; each end, rounded
        inward and clipped, moves one step where Q says it is wrong (the
        roots err far less than a step).  Rows -n mirror n bit for bit."""
        band, tau = self.source_bandwidth, self.tau
        lams = np.asarray(lams, dtype=float)
        n = np.arange(band + 1.0).reshape(-1, *(1,) * lams.ndim)
        c = -tau.re * n
        d = np.sqrt(np.maximum(lams - tau.im * tau.im * n * n, 0.0))
        s = np.clip(np.floor(c), -band - 1, band)
        lo = np.clip(np.ceil(c - d), -band, s + 1)
        lo += (lo <= s) & (quadratic_form_values(tau, lo, n) >= lams)
        lo -= (lo > -band) & (quadratic_form_values(tau, lo - 1, n) < lams)
        hi = np.clip(np.floor(c + d), s, band)
        hi -= (hi > s) & (quadratic_form_values(tau, hi, n) >= lams)
        hi += (hi < band) & (quadratic_form_values(tau, hi + 1, n) < lams)
        rows = hi - lo + 1
        return (2.0 * rows.sum(axis=0) - rows[0]).astype(np.intp)


def lattice_counting_data(tau: ModuliPoint, band: int) -> LatticeCountingData:
    """Counting data for the analytic flat spectrum, with the ceiling at 0.95
    of the containment ceiling, below the quarter of the box maximum, which
    sits at a corner Q(band, +-band)."""
    if band < 0:
        raise SpectralError(f"lattice band must be >= 0, got {band}")
    top = float(quadratic_form_values(tau, [band, -band], band).max())
    ceiling = min(0.95 * box_containment_ceiling(tau, band), DEFAULT_CEILING_FRACTION * top)
    return LatticeCountingData(tau, band, ceiling,
                               "ceiling = box containment radius of the sublevel ellipse")


# ---------------------------------------------------------------------------
# Dixmier trace estimation

@dataclass(frozen=True)
class DixmierData:
    """Decreasing nonnegative sequence, carried as runs, with its partial sums.

    mu is given as Runs (a lattice spectrum) or as an array, which is runs
    of multiplicity 1; the runs are never expanded.  Once built, mu holds
    the run values and mult their multiplicities, and counts and
    partial_sums the number and the sum of the values through each run: for
    an array, partial_sums is np.cumsum(mu) bit for bit.  The values are
    kept by reference, not copied, unless a negative rounding-level entry
    needs clipping to 0; the caller's array is never changed.
    """

    mu: np.ndarray
    mult: np.ndarray = field(init=False)
    counts: np.ndarray = field(init=False)
    partial_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        if isinstance(self.mu, Runs):
            mu, mult = np.asarray(self.mu.values, dtype=float), self.mu.mult
        else:
            mu = np.asarray(self.mu, dtype=float)
            mult = np.ones(mu.size, dtype=np.intp)
        if mult.shape != mu.shape or np.any(mult < 1):
            raise SpectralError("multiplicities must be positive, one per value")
        if np.any(np.diff(mu) > 1e-12):
            raise SpectralError("singular values must be non-increasing")
        if mu.size and mu[-1] < -1e-15:
            raise SpectralError("singular values must be nonnegative")
        if np.any(mu < 0.0):
            mu = np.clip(mu, 0.0, None)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "counts", np.cumsum(mult))
        object.__setattr__(self, "partial_sums", np.cumsum(mu * mult))


@dataclass(frozen=True)
class DixmierEstimate:
    value: float
    drift: float
    cesaro: float
    vanishing: bool
    fit_window: tuple
    n_values: int


def _trace_n(dd: DixmierData, n: np.ndarray) -> np.ndarray:
    """Trace_N, the sum of the N largest values, at integers N in 1..M: the
    partial sum through the run that holds the N-th value, less the values
    of that run beyond N."""
    k = np.searchsorted(dd.counts, n)
    return dd.partial_sums[k] - (dd.counts[k] - n) * dd.mu[k]


def _log_slope(dd: DixmierData, n_lo: int, n_hi: int) -> float:
    ns = np.unique(np.geomspace(n_lo, n_hi, 48).astype(int))
    ys = _trace_n(dd, ns)
    xs = np.log(ns.astype(float))
    design = np.stack([np.ones_like(xs), xs], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coef[1])


def dixmier_estimate(dd: DixmierData) -> DixmierEstimate:
    """Log-slope of the partial sums over the trailing half of the data.

    value: slope of Trace_N against log N for N in [sqrt(M), M] (the trailing
    half in log scale); drift: relative change of the slope between the last
    two dyadic windows, a stand-in convergence diagnostic for the limiting
    state; cesaro: the Cesaro mean of Trace_r / log r at the endpoint;
    vanishing: |value| < 0.05.  M counts the values with multiplicity, and
    Trace_N is read off the runs at each integer N the fits need.
    """
    M = int(dd.counts[-1]) if dd.counts.size else 0
    if M < 1000:
        raise SpectralError(f"need at least 1000 singular values, got {M}")
    n_lo = max(2, int(math.sqrt(M)))
    value = _log_slope(dd, n_lo, M)
    s1 = _log_slope(dd, max(2, M // 4), M // 2)
    s2 = _log_slope(dd, M // 2, M)
    drift = abs(s2 - s1) / abs(s2) if s2 != 0.0 else math.inf
    # Cesaro mean of Trace_r / log r over the multiplicative group, from r = e;
    # Trace_r between integers is the linear interpolation of Trace_N
    # (np.interp on the nodes 1..M, bit for bit, without building the nodes)
    ns = np.unique(np.geomspace(math.e, M, 512))
    j = ns.astype(int)
    lo = _trace_n(dd, j)
    tr = (_trace_n(dd, np.minimum(j + 1, M)) - lo) * (ns - j) + lo
    g = tr / np.log(ns)
    u = np.log(ns)
    cesaro = float(np.trapezoid(g, u) / (u[-1] - u[0]))
    vanishing = abs(value) < 0.05
    return DixmierEstimate(value, drift, cesaro, vanishing, (n_lo, M), M)


def resolvent_mu_disk(c0: float, q_max: float, tau: ModuliPoint = ModuliPoint(0.0, 1.0)) -> Runs:
    """Decreasing eigenvalues (c0 + Q(m,n))^{-1} over the lattice disk Q <= q_max,
    as Runs: the disk runs with each value mapped, .size the count.

    For c0 > 0 the map q -> 1/(c0 + q) reverses the order of the ascending
    disk values (correctly rounded + and / are monotone), so the result
    needs no sort; c0 <= 0 raises SpectralError, as lattice_disk_eigenvalues
    does for a NaN or infinite q_max.
    """
    if not c0 > 0.0:
        raise SpectralError(f"resolvent shift c0 must be positive, got {c0:g}")
    disk = lattice_disk_eigenvalues(tau, q_max)
    q = disk.values
    q += c0
    return Runs(np.divide(1.0, q, out=q), disk.mult)


def singular_values_descending(mat) -> np.ndarray:
    """Singular values of square mat, dense (read by as_csr) or sparse, via
    the Gram matrix of each coupling block."""
    ev, _ = block_spectrum(lambda b: np.linalg.eigvalsh(b.conj().swapaxes(1, 2) @ b),
                           _as_real_if_possible(as_csr(mat)))
    return np.sqrt(np.clip(ev, 0.0, None))[::-1]


def _section_dixmier(mu: np.ndarray) -> DixmierEstimate:
    """Dixmier estimate of a finite section's decreasing spectrum mu.

    Its smallest values sit in the window-corner region where the box
    truncation distorts the counting, so the trailing DEFAULT_CEILING_FRACTION
    (the counting-side validity ceiling's share) is excluded, keeping at
    least 1000.
    """
    keep = int(mu.size * (1.0 - DEFAULT_CEILING_FRACTION))
    return dixmier_estimate(DixmierData(mu[:max(1000, keep)]))
