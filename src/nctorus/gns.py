"""Finite sections of operators on the GNS space of the noncommutative torus.

The monomial basis U^m V^n with |m|,|n| <= N is enumerated row-major (m outer,
n inner).  Left/right multiplication operators and the flat and conformally
perturbed Laplacians are compressed to this window as dense matrices; a
generalized eigenvalue pencil built from the weighted inner product provides
an independent construction of the perturbed spectrum.

A section couples (m,n) only to (m,n) plus the lattice spanned by the support
of its coefficients: for h on Z x {0}, 2N+1 independent rows.  Every solve and
the K D K product run on the blocks ``coupling_blocks`` finds, the connected
components of the joint nonzero pattern; a connected pattern (generic h) is one
block, the dense solve on the whole window.  Matrices handed out stay dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .algebra import (
    AlgebraError,
    ConformalData,
    ModuliPoint,
    NcElement,
    mul,
)

HERMITICITY_TOL = 1e-10


class SectionError(RuntimeError):
    """Finite-section construction or diagonalization failure."""


@dataclass(frozen=True)
class BasisWindow:
    """Index window |m|,|n| <= bandwidth with its deterministic enumeration."""

    bandwidth: int

    @property
    def side(self) -> int:
        return 2 * self.bandwidth + 1

    @property
    def dim(self) -> int:
        return self.side * self.side

    def index_of(self, m: int, n: int) -> int:
        N = self.bandwidth
        if abs(m) > N or abs(n) > N:
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


@dataclass
class FiniteSectionOperator:
    """Dense matrix over a basis window, optionally flagged selfadjoint."""

    window: BasisWindow
    entries: np.ndarray
    selfadjoint: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.window.dim
        if self.entries.shape != (d, d):
            raise SectionError(
                f"matrix shape {self.entries.shape} does not match window dim {d}"
            )
        if self.selfadjoint:
            asym = float(np.max(np.abs(self.entries - self.entries.conj().T)))
            if asym > HERMITICITY_TOL:
                raise SectionError(f"selfadjoint flag set but asymmetry {asym:.3e}")

    @property
    def dim(self) -> int:
        return self.window.dim


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalue sequence of a finite section."""

    eigenvalues: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) < 0):
            raise SectionError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", ev)


def _mult_matrix(a: NcElement, w: BasisWindow, side_left: bool) -> np.ndarray:
    """Finite section of left (or right) multiplication by a.

    Left:  entry[(m+p, n+q), (m, n)] = a_{p,q} e^{2 pi i theta q m}.
    Right: entry[(m+p, n+q), (m, n)] = a_{p,q} e^{2 pi i theta n p}.
    Columns whose image leaves the window are clipped.
    """
    N = w.bandwidth
    mm, nn = w.index_grids()
    cols = np.arange(w.dim)
    out = np.zeros((w.dim, w.dim), dtype=complex)
    theta = a.theta
    for (p, q), c in a.coeffs.items():
        tm = mm + p
        tn = nn + q
        ok = (np.abs(tm) <= N) & (np.abs(tn) <= N)
        rows = (tm[ok] + N) * w.side + (tn[ok] + N)
        if side_left:
            phase = np.exp(2j * math.pi * theta * q * mm[ok])
        else:
            phase = np.exp(2j * math.pi * theta * p * nn[ok])
        out[rows, cols[ok]] += c * phase
    return out


def left_mult_matrix(a: NcElement, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of the left regular action of a."""
    return FiniteSectionOperator(w, _mult_matrix(a, w, side_left=True))


def right_mult_matrix(a: NcElement, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of right multiplication by a (used for weighted Grams)."""
    return FiniteSectionOperator(w, _mult_matrix(a, w, side_left=False))


def quadratic_form_values(tau: ModuliPoint, m, n):
    """Q(m,n) = m^2 + 2 Re(tau) m n + |tau|^2 n^2 evaluated elementwise."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return m * m + 2.0 * tau.re * m * n + tau.abs2 * n * n


def flat_laplacian_matrix(tau: ModuliPoint, w: BasisWindow) -> FiniteSectionOperator:
    """Diagonal section of the flat Laplacian for the modulus tau."""
    mm, nn = w.index_grids()
    diag = quadratic_form_values(tau, mm, nn)
    return FiniteSectionOperator(w, np.diag(diag).astype(complex), selfadjoint=True)


def _as_real_if_possible(mat: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(mat) and not np.any(mat.imag):
        return np.ascontiguousarray(mat.real)
    return mat


def coupling_blocks(*mats) -> list:
    """Index sets (ascending) of the connected components of the joint nonzero
    pattern: every mat is block diagonal under one common permutation."""
    pattern = mats[0] != 0
    for m in mats[1:]:
        pattern |= m != 0
    count, labels = connected_components(sp.csr_matrix(pattern), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def block_stacks(blocks, *mats):
    """Per block size, yield (sel, subs): mat[sel] stacks the diagonal blocks
    of that size as a (count, size, size) array, subs holds them for each mat.
    A single block is the whole window: sel is then (None, ...), a view."""
    if len(blocks) == 1:
        yield (None, Ellipsis), [m[None] for m in mats]
        return
    by_size: dict = {}
    for b in blocks:
        by_size.setdefault(b.size, []).append(b)
    for group in by_size.values():
        idx = np.stack(group)
        sel = (idx[:, :, None], idx[:, None, :])
        yield sel, [m[sel] for m in mats]


def _block_diagnostics(blocks) -> dict:
    """Block count and largest block size: which path a solve ran."""
    return {"blocks": len(blocks), "max_block": max(b.size for b in blocks)}


def perturbed_laplacian_matrix(cd: ConformalData, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of the conformally perturbed Laplacian k (flat) k.

    Assembled as K D K with K the left-multiplication section of the Weyl
    factor and D the diagonal flat Laplacian, one coupling block of K at a
    time, then symmetrized as (M+M^H)/2; the discarded asymmetry magnitude is
    reported in diagnostics.
    """
    K = _as_real_if_possible(_mult_matrix(cd.k, w, side_left=True))
    mm, nn = w.index_grids()
    diag = quadratic_form_values(cd.tau, mm, nn)
    blocks = coupling_blocks(K)
    M = K  # zero off its blocks, so each block of K D K overwrites that of K
    asym = 0.0
    for sel, (Kb,) in block_stacks(blocks, K):
        Mb = (Kb * diag[sel[1]]) @ Kb
        MbH = Mb.conj().swapaxes(1, 2)
        asym = max(asym, float(np.max(np.abs(Mb - MbH))))
        Mb += MbH
        Mb /= 2.0
        M[sel] = Mb
    if asym > 1e-8:
        raise SectionError(
            f"perturbed Laplacian asymmetry {asym:.3e}; Weyl factor cache inconsistent"
        )
    return FiniteSectionOperator(
        w, M, selfadjoint=True,
        diagnostics={"asymmetry": asym, **_block_diagnostics(blocks)},
    )


def gram_laplacian_matrix(cd: ConformalData, w: BasisWindow):
    """Matrix pencil (A^H A, G_phi) for the weighted-space Laplacian.

    A is the diagonal section of the Dolbeault derivation (entry m + conj(tau) n).
    The derivative-space Gram of the monomials is the identity: writing each
    monomial as a * db with b = V, the inner product t(a'* a db db'*) collapses
    to the plain GNS pairing.  G_phi is the weighted Gram
    G_phi[(m,n),(p,q)] = phi((U^p V^q)* U^m V^n).  Generalized eigenvalues of
    the pencil approximate the perturbed Laplacian spectrum.
    """
    mm, nn = w.index_grids()
    d = mm + cd.tau.value.conjugate() * nn
    stiffness = np.diag(d.conj() * d)
    # G_phi is the transpose of the right-multiplication section of e^{-h}
    gram = _mult_matrix(cd.k_inv2, w, side_left=False).T.copy()
    asym = float(np.max(np.abs(gram - gram.conj().T)))
    if asym > HERMITICITY_TOL:
        raise SectionError(f"weighted Gram asymmetry {asym:.3e}")
    gram = (gram + gram.conj().T) / 2.0
    op = FiniteSectionOperator(w, stiffness, selfadjoint=True)
    gm = FiniteSectionOperator(w, gram, selfadjoint=True)
    return op, gm


def hermitian_spectrum(op: FiniteSectionOperator, positive: bool = False) -> SpectrumResult:
    """Full ascending spectrum of a selfadjoint finite section, block by block.

    With positive=True the result is additionally required to satisfy
    min eigenvalue >= -1e-8 (boundary-effect allowance for positive operators).
    """
    if not op.selfadjoint:
        raise SectionError("hermitian_spectrum requires the selfadjoint flag")
    mat = _as_real_if_possible(op.entries)
    blocks = coupling_blocks(mat)
    try:
        ev = np.concatenate([np.linalg.eigvalsh(sub).ravel()
                             for _, (sub,) in block_stacks(blocks, mat)])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
        raise SectionError(f"eigensolver failed: {exc}") from exc
    ev = np.sort(ev)
    if positive and ev[0] < -1e-8:
        raise SectionError(
            f"positive-flagged section has eigenvalue {ev[0]:.3e} below -1e-8"
        )
    return SpectrumResult(ev, {"dim": op.dim, "min_eigenvalue": float(ev[0]),
                               **_block_diagnostics(blocks)})


def generalized_spectrum(op: FiniteSectionOperator, gram: FiniteSectionOperator) -> SpectrumResult:
    """Ascending generalized eigenvalues of the pencil (op, gram), solved on
    the coupling blocks of their joint pattern."""
    blocks = coupling_blocks(op.entries, gram.entries)
    try:
        ev = np.concatenate([
            sla.eigh(a, b, eigvals_only=True)
            for _, stacks in block_stacks(blocks, op.entries, gram.entries)
            for a, b in zip(*stacks)
        ])
    except np.linalg.LinAlgError as exc:
        raise SectionError(
            f"Gram matrix not positive definite within tolerance: {exc}"
        ) from exc
    return SpectrumResult(np.sort(ev), {"dim": op.dim, **_block_diagnostics(blocks)})


def vacuum_expectation(op: FiniteSectionOperator) -> complex:
    """Matrix entry at the vacuum basis vector; the trace of g(k^2) routes."""
    v = op.window.vacuum
    return complex(op.entries[v, v])


def trace_kinv2_matrix_route(cd: ConformalData, pad: int = 8) -> float:
    """t(k^{-2}) via the vacuum expectation of the inverse of L_{k^2}.

    The window pads the support of k^2 so the inverse approximates the true
    inverse well near the vacuum column; only the vacuum's coupling block is
    solved, for that column alone.
    """
    k2 = mul(cd.k, cd.k).trimmed(1e-14)
    w = BasisWindow(k2.support_bandwidth() + pad)
    K2 = _mult_matrix(k2, w, side_left=True)
    block = next(b for b in coupling_blocks(K2) if w.vacuum in b)
    vac = block == w.vacuum
    col = np.linalg.solve(K2[np.ix_(block, block)], vac.astype(K2.dtype))
    return float(col[vac][0].real)
