"""Exact arithmetic in the smooth noncommutative torus algebra.

Elements are finite twisted Fourier series sum_{m,n} a_{m,n} U^m V^n over the
unitary generators U, V with VU = e^{2*pi*i*theta} UV.  All operations here are
pure functions of immutable values: products never truncate, the trace reads
the (0,0) coefficient, and the two torus derivations act diagonally on the
monomial basis.  The conformal data (Weyl factor k = e^{h/2}, its square and
inverse square, the weight phi) live here as well, with the window
|m|,|n| <= N of the finite sections (``BasisWindow``, the one producer of its
layout), the one sparse builder of multiplication sections on it, and the
JSON form {"theta", "coeffs"} of elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_TOL = 1e-12
EXP_CONV_TOL = 1e-8        # largest admissible l1 change of e^{h} between pads

GOLDEN_RATIO_THETA = (math.sqrt(5.0) - 1.0) / 2.0


class AlgebraError(ValueError):
    """Invalid algebraic input (mismatched angles, bad axis, ...)."""


class NonConvergence(AlgebraError):
    """A padded approximation failed its self-reported convergence check."""


class SectionError(RuntimeError):
    """Finite-section construction or diagonalization failure."""


@dataclass(frozen=True)
class DeformationAngle:
    """Deformation parameter theta in (0,1), irrational by intent.

    Stored in full binary precision and never reduced after construction.
    """

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise AlgebraError(f"theta must lie in (0,1), got {self.theta}")


GOLDEN = DeformationAngle(GOLDEN_RATIO_THETA)


@dataclass(frozen=True)
class ModuliPoint:
    """Conformal modulus tau = re + i*im in the upper half-plane."""

    re: float
    im: float

    def __post_init__(self):
        if not self.im > 0.0:
            raise AlgebraError(f"moduli point needs im > 0, got {self.im}")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def abs2(self) -> float:
        return self.re * self.re + self.im * self.im


@lru_cache(maxsize=8)
def _twist_table(theta: float) -> list:
    """[e^{2 pi i theta j} over |j| <= K]: the angle's table, which _twist
    grows to twice the largest |k| asked for."""
    return [np.ones(1, dtype=complex)]


def _twist(theta: float, k: np.ndarray) -> np.ndarray:
    """The twist e^{2 pi i theta k} of an integer array k, read from the angle's table."""
    held = _twist_table(theta)
    top = int(np.abs(k).max(initial=0))
    if 2 * top >= held[0].size:
        held[0] = np.exp(2j * math.pi * theta * np.arange(-2 * top, 2 * top + 1))
    return held[0][k + held[0].size // 2]


def _crop(corner, box: np.ndarray):
    """(corner, box) cut down to the smallest box holding the nonzero entries;
    ((0, 0), an empty box) when there are none."""
    if box.size and all(map(np.count_nonzero, (box[0], box[-1], box[:, 0], box[:, -1]))):
        return (int(corner[0]), int(corner[1])), box
    rows = np.flatnonzero(box.any(axis=1))
    if not rows.size:
        return (0, 0), np.zeros((0, 0), dtype=complex)
    cols = np.flatnonzero(box.any(axis=0))
    return ((int(corner[0] + rows[0]), int(corner[1] + cols[0])),
            box[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1])


class NcElement:
    """A bandwidth-bounded twisted Fourier series.

    The coefficient of U^m V^n is box[m - corner[0], n - corner[1]], zero
    outside the box; the box is cropped to the support, so the zero element
    has an empty box.  Every index lies in |m|,|n| <= bandwidth.  Instances
    are immutable by convention: nothing mutates a box once built.
    """

    __slots__ = ("angle", "bandwidth", "corner", "box")

    def __init__(self, angle: DeformationAngle, bandwidth: int, coeffs: dict):
        """Checking constructor from {(m, n): c}, for input from outside."""
        if bandwidth < 0:
            raise AlgebraError("bandwidth must be non-negative")
        # the zero element enters as one zero at the origin, which _crop drops
        keys = np.array(list(coeffs) or [(0, 0)], dtype=int)
        outside = keys[(np.abs(keys) > bandwidth).any(axis=1)]
        if outside.size:
            m, n = outside[0].tolist()
            raise AlgebraError(f"coefficient index ({m},{n}) outside bandwidth box {bandwidth}")
        lo = keys.min(axis=0)
        box = np.zeros(keys.max(axis=0) - lo + 1, dtype=complex)
        box[tuple((keys - lo).T)] = [complex(c) for c in coeffs.values()] or [0.0]
        self.angle = angle
        self.bandwidth = int(bandwidth)
        self.corner, self.box = _crop(lo, box)

    @property
    def theta(self) -> float:
        return self.angle.theta

    def terms(self):
        """(m, n, c) arrays over the nonzero coefficients, in lexicographic order."""
        i, j = np.nonzero(self.box)
        return i + self.corner[0], j + self.corner[1], self.box[i, j]

    @property
    def coeffs(self) -> dict:
        """{(m, n): c} with int keys and complex values over the nonzero
        coefficients, in lexicographic order."""
        m, n, c = self.terms()
        return dict(zip(zip(m.tolist(), n.tolist()), c.tolist()))

    def coeff(self, m: int, n: int) -> complex:
        i, j = m - self.corner[0], n - self.corner[1]
        inside = 0 <= i < self.box.shape[0] and 0 <= j < self.box.shape[1]
        return complex(self.box[i, j]) if inside else 0.0 + 0.0j

    def l1_norm(self) -> float:
        return float(np.abs(self.box).sum())

    def support_bandwidth(self) -> int:
        """Smallest box actually containing the support."""
        (m0, n0), (rows, cols) = self.corner, self.box.shape
        return max(-m0, m0 + rows - 1, -n0, n0 + cols - 1, 0)

    def trimmed(self, tol: float = 0.0) -> "NcElement":
        """Drop coefficients of magnitude <= tol and shrink the declared box."""
        kept = _element(self.angle, 0, self.corner, np.where(np.abs(self.box) > tol, self.box, 0))
        kept.bandwidth = kept.support_bandwidth()
        return kept

    def isclose(self, other: "NcElement", tol: float = DEFAULT_TOL) -> bool:
        return self.angle == other.angle and bool(
            (np.abs(add(self, scale(-1.0, other)).box) <= tol).all())

    __hash__ = None

    def __repr__(self):
        terms = ", ".join(f"({m},{n}): {c:.6g}" for (m, n), c in self.coeffs.items())
        return f"NcElement(theta={self.theta:.12g}, bw={self.bandwidth}, {{{terms}}})"


def _element(angle: DeformationAngle, bandwidth: int, corner, box: np.ndarray) -> NcElement:
    """The element with coefficient box[m - corner[0], n - corner[1]] at (m, n),
    built without NcElement's checks: the caller keeps the box inside the
    bandwidth box."""
    out = NcElement.__new__(NcElement)
    out.angle = angle
    out.bandwidth = bandwidth
    out.corner, out.box = _crop(corner, box)
    return out


def _indices(a: NcElement):
    """The m column and the n row of a's box."""
    (m0, n0), (rows, cols) = a.corner, a.box.shape
    return np.arange(m0, m0 + rows)[:, None], np.arange(n0, n0 + cols)[None, :]


def coeff_key(a: NcElement) -> bytes:
    """Bytes that are equal exactly when two elements have equal coefficients,
    with -0.0 and 0.0 counted equal; Python caches the hash of bytes."""
    return np.array([*a.corner, *a.box.shape]).tobytes() + (a.box + 0.0).tobytes()


def make_monomial(m: int, n: int, c: complex = 1.0, angle: DeformationAngle = GOLDEN) -> NcElement:
    """The single-term element c * U^m V^n."""
    return _element(angle, max(abs(m), abs(n)), (m, n), np.full((1, 1), c, dtype=complex))


def unit(angle: DeformationAngle = GOLDEN) -> NcElement:
    return make_monomial(0, 0, 1.0, angle)


def zero(angle: DeformationAngle = GOLDEN) -> NcElement:
    return NcElement(angle, 0, {})


def _check_same_angle(a: NcElement, b: NcElement):
    if a.angle != b.angle:
        raise AlgebraError("deformation angles do not match")


def add(a: NcElement, b: NcElement) -> NcElement:
    _check_same_angle(a, b)
    lo = np.minimum(a.corner, b.corner)
    out = np.zeros(np.maximum(np.add(a.corner, a.box.shape), np.add(b.corner, b.box.shape)) - lo,
                   dtype=complex)
    for e in (a, b):
        i, j = np.subtract(e.corner, lo)
        out[i:i + e.box.shape[0], j:j + e.box.shape[1]] += e.box
    return _element(a.angle, max(a.bandwidth, b.bandwidth), lo, out)


def scale(c: complex, a: NcElement) -> NcElement:
    return _element(a.angle, a.bandwidth, a.corner, c * a.box)


def mul(a: NcElement, b: NcElement) -> NcElement:
    """Exact twisted product; bandwidth grows to a.bandwidth + b.bandwidth.

    (U^m V^n)(U^p V^q) = e^{2*pi*i*theta*n*p} U^{m+p} V^{n+q}.  Each
    coefficient of the operand with fewer terms adds one shifted block of the
    other operand's box, phased by one row of the table e^{2 pi i theta n p}
    over the n of a's box and the p of b's box.
    """
    _check_same_angle(a, b)
    bw = a.bandwidth + b.bandwidth
    if not a.box.size or not b.box.size:
        return _element(a.angle, bw, (0, 0), np.zeros((0, 0), dtype=complex))
    abox, bbox = a.box, b.box
    phase = _twist(a.theta, _indices(a)[1].T * _indices(b)[0].T)
    out = np.zeros(np.add(abox.shape, bbox.shape) - 1, dtype=complex)
    ai, aj = np.nonzero(abox)
    bi, bj = np.nonzero(bbox)
    if ai.size <= bi.size:
        bp, bq = bbox.shape
        for i, j, c in zip(ai.tolist(), aj.tolist(), abox[ai, aj].tolist()):
            out[i:i + bp, j:j + bq] += (c * phase[j])[:, None] * bbox
    else:
        ap, aq = abox.shape
        for i, j, c in zip(bi.tolist(), bj.tolist(), bbox[bi, bj].tolist()):
            out[i:i + ap, j:j + aq] += (c * phase[:, i]) * abox
    return _element(a.angle, bw, np.add(a.corner, b.corner), out)


def adjoint(a: NcElement) -> NcElement:
    """Star involution: (U^m V^n)* = e^{2*pi*i*theta*m*n} U^{-m} V^{-n}."""
    (m0, n0), (rows, cols) = a.corner, a.box.shape
    m, n = _indices(a)
    flipped = (np.conj(a.box) * _twist(a.theta, m * n))[::-1, ::-1]
    return _element(a.angle, a.bandwidth, (1 - m0 - rows, 1 - n0 - cols), flipped)


def trace_t(a: NcElement) -> complex:
    """The unique normalized trace: the (0,0) Fourier coefficient."""
    return a.coeff(0, 0)


def trace_of_product(a: NcElement, b: NcElement) -> complex:
    """trace(a b) = <a, b*>, without materializing the product:
    sum over (m,n) of a_{m,n} b_{-m,-n} e^{-2 pi i theta m n}, read over the
    overlap of a's box with b's box flipped through the origin."""
    _check_same_angle(a, b)
    (am, an), (bm, bn), (rows, cols) = a.corner, b.corner, b.box.shape
    m = np.arange(max(am, 1 - bm - rows), min(am + a.box.shape[0], 1 - bm))[:, None]
    n = np.arange(max(an, 1 - bn - cols), min(an + a.box.shape[1], 1 - bn))
    flipped = np.conj(b.box[-m - bm, -n - bn]) * _twist(a.theta, m * n)
    return complex(np.vdot(flipped, a.box[m - am, n - an]))


def inner_product(a: NcElement, b: NcElement) -> complex:
    """GNS inner product <a,b> = trace(b* a).  The monomials are orthonormal,
    so it is the sum of a_{m,n} conj(b_{m,n}) over the overlap of the boxes."""
    _check_same_angle(a, b)
    lo = np.maximum(a.corner, b.corner)
    hi = np.maximum(lo, np.minimum(np.add(a.corner, a.box.shape), np.add(b.corner, b.box.shape)))
    (ai, aj), (bi, bj) = lo - a.corner, lo - b.corner
    p, q = hi - lo
    return complex(np.vdot(b.box[bi:bi + p, bj:bj + q], a.box[ai:ai + p, aj:aj + q]))


def delta(axis: int, a: NcElement) -> NcElement:
    """Basis derivations: delta_1 scales by m, delta_2 by n."""
    if axis not in (1, 2):
        raise AlgebraError(f"axis must be 1 or 2, got {axis}")
    return _element(a.angle, a.bandwidth, a.corner, _indices(a)[axis - 1] * a.box)


def is_selfadjoint(a: NcElement, tol: float = DEFAULT_TOL) -> bool:
    return a.isclose(adjoint(a), tol)


@dataclass(frozen=True)
class BasisWindow:
    """Index window |m|,|n| <= bandwidth with its deterministic enumeration,
    row-major (m outer, n inner): the one producer of the window's layout."""

    bandwidth: int

    def __post_init__(self):
        if self.bandwidth < 0:
            raise SectionError(f"window bandwidth must be >= 0, got {self.bandwidth}")

    @property
    def side(self) -> int:
        return 2 * self.bandwidth + 1

    @property
    def dim(self) -> int:
        return self.side * self.side

    def index_of(self, m, n):
        """The enumeration index of (m, n); elementwise over integer arrays,
        which the caller clips to the window (a scalar pair is checked)."""
        N = self.bandwidth
        if np.isscalar(m) and (abs(m) > N or abs(n) > N):
            raise SectionError(f"({m},{n}) outside window bandwidth {N}")
        return (m + N) * self.side + (n + N)

    def pair_of(self, idx: int):
        N = self.bandwidth
        m, n = divmod(int(idx), self.side)
        return m - N, n - N

    def index_grids(self):
        """(m, n) integer arrays aligned with the enumeration."""
        N = self.bandwidth
        mm, nn = np.divmod(np.arange(self.dim), self.side)
        return mm - N, nn - N

    @property
    def vacuum(self) -> int:
        return self.index_of(0, 0)


def _mult_section(theta: float, terms: dict, w: BasisWindow, right: bool = False) -> sp.csr_matrix:
    """Sparse finite section of a twisted multiplication on the window w.

    terms maps a shift (p,q) to a scalar or to an array holding one
    coefficient c per column (m,n); left multiplication puts
    c e^{2 pi i theta q m} at row (m+p, n+q), right multiplication puts
    c e^{2 pi i theta p n} there.  Images leaving the window are clipped.
    """
    dim = w.dim
    if not terms:
        return sp.csr_matrix((dim, dim), dtype=complex)
    mm, nn = w.index_grids()
    p, q = np.array(list(terms)).T[:, :, None]
    coef = np.array(list(terms.values()), dtype=complex).reshape(len(terms), -1)
    tm = mm + p
    tn = nn + q
    ok = (np.abs(tm) <= w.bandwidth) & (np.abs(tn) <= w.bandwidth)
    shift, grid = (p, nn) if right else (q, mm)
    vals = (coef * _twist(theta, shift * grid))[ok]
    rows = w.index_of(tm[ok], tn[ok])
    cols = np.nonzero(ok)[1]
    order = np.lexsort((cols, rows))  # row-major: the CSR arrays directly
    indptr = np.searchsorted(rows[order], np.arange(dim + 1))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=(dim, dim))


def _exp_image(h: NcElement, scl: float, w: BasisWindow) -> NcElement:
    """e^{scl*h} applied to the vacuum vector on the window w."""
    mat = _mult_section(h.theta, h.coeffs, w) * scl
    e0 = np.zeros(w.dim, dtype=complex)
    e0[w.vacuum] = 1.0
    img = spla.expm_multiply(mat, e0).reshape(w.side, w.side)
    band = w.bandwidth
    return _element(h.angle, band, (-band, -band), np.where(np.abs(img) > 1e-300, img, 0))


def exp_selfadjoint(h: NcElement, scl: float = 1.0, pad: int = 16):
    """Approximate e^{scl*h} as an element of bandwidth h.bandwidth + pad.

    The exponential is realized as the action of the matrix exponential of the
    left-multiplication finite section on the vacuum basis vector of a padded
    window.  Returns (element, convergence) where convergence is the l1 change
    of the coefficients between pads pad and pad-1; raises NonConvergence when
    that metric exceeds EXP_CONV_TOL.
    """
    if not is_selfadjoint(h, 1e-10):
        raise AlgebraError("exp_selfadjoint requires a selfadjoint element")
    if pad < 1:
        raise AlgebraError("pad must be >= 1")
    bw = h.support_bandwidth()
    full = _exp_image(h, scl, BasisWindow(bw + pad))
    prev = _exp_image(h, scl, BasisWindow(bw + pad - 1))
    convergence = add(full, scale(-1.0, prev)).l1_norm()
    if convergence > EXP_CONV_TOL:
        raise NonConvergence(
            f"exp_selfadjoint pad={pad} convergence metric {convergence:.3e} > {EXP_CONV_TOL:.1e}"
        )
    return full, convergence


@dataclass(frozen=True)
class ConformalData:
    """Conformal modulus plus the Weyl factor caches k = e^{h/2}, k^{-2} = e^{-h},
    with exp_selfadjoint's convergence metric of each.  k2 = k k, the product
    the consistency check forms, is kept: the one producer of k^2."""

    tau: ModuliPoint
    h: NcElement
    k: NcElement
    k_inv2: NcElement
    k_convergence: float
    k_inv2_convergence: float
    k2: NcElement = field(init=False)

    def __post_init__(self):
        if not is_selfadjoint(self.h, 1e-10):
            raise AlgebraError("conformal data requires selfadjoint h")
        k2 = mul(self.k, self.k)
        object.__setattr__(self, "k2", k2)
        resid = add(mul(self.k_inv2, k2), scale(-1.0, unit(self.h.angle)))
        if resid.l1_norm() > 1e-7:
            raise AlgebraError(
                f"inconsistent Weyl factor caches: |k_inv2*k*k - 1|_1 = {resid.l1_norm():.3e}"
            )

    @classmethod
    def build(cls, tau: ModuliPoint, h: NcElement, pad: int = 16,
              trim: float = 1e-15) -> "ConformalData":
        k, k_conv = exp_selfadjoint(h, 0.5, pad)
        k_inv2, k_inv2_conv = exp_selfadjoint(h, -1.0, pad)
        return cls(tau=tau, h=h, k=k.trimmed(trim), k_inv2=k_inv2.trimmed(trim),
                   k_convergence=k_conv, k_inv2_convergence=k_inv2_conv)

    @property
    def angle(self) -> DeformationAngle:
        return self.h.angle


def phi(a: NcElement, cd: ConformalData) -> complex:
    """The conformal weight phi(a) = trace(a e^{-h})."""
    _check_same_angle(a, cd.h)
    return trace_of_product(a, cd.k_inv2)


def random_element(rng: np.random.Generator, band: int, n_terms: int = 6,
                   angle: DeformationAngle = GOLDEN, scale_coeff: float = 1.0) -> NcElement:
    """Random test element with n_terms coefficients inside the band box."""
    out = {}
    for _ in range(n_terms):
        m = int(rng.integers(-band, band + 1))
        n = int(rng.integers(-band, band + 1))
        out[(m, n)] = complex(rng.standard_normal(), rng.standard_normal()) * scale_coeff
    return NcElement(angle, band, out)


def random_selfadjoint(rng: np.random.Generator, band: int,
                       angle: DeformationAngle = GOLDEN, scale_coeff: float = 0.3) -> NcElement:
    a = random_element(rng, band, 4, angle, scale_coeff)
    return scale(0.5, add(a, adjoint(a)))


# ---------------------------------------------------------------------------
# JSON serialization: {"theta": t, "coeffs": [[m, n, re, im], ...]}
# Writers emit coefficients sorted lexicographically; readers accept any order.

def to_json_dict(a: NcElement) -> dict:
    rows = [[m, n, c.real, c.imag] for (m, n), c in a.coeffs.items()]
    return {"theta": a.theta, "coeffs": rows}


def from_json_dict(d: dict) -> NcElement:
    angle = DeformationAngle(float(d["theta"]))
    coeffs = {}
    for m, n, re, im in d["coeffs"]:
        coeffs[(int(m), int(n))] = coeffs.get((int(m), int(n)), 0.0) + complex(re, im)
    bw = max((max(abs(m), abs(n)) for (m, n) in coeffs), default=0)
    return NcElement(angle, bw, coeffs)
