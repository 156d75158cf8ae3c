"""Finite sections of operators on the GNS space of the noncommutative torus.

The monomial basis U^m V^n with |m|,|n| <= N is enumerated row-major (m outer,
n inner).  Left and right multiplication operators (``left_mult_matrix``,
``right_mult_matrix``: every multiplication section here is built through
one of the two) and the conformally perturbed Laplacian are compressed to
this window as sparse CSR matrices; a generalized eigenvalue pencil built
from the weighted inner product provides an independent construction of the
perturbed spectrum.  A selfadjoint section (K D K, the pencil, ``heat``'s k^2)
is checked and made Hermitian once, by ``FiniteSectionOperator``.  The
diagonal flat Laplacian (``flat_laplacian_matrix``) is a test oracle only.

A section couples (m,n) only to (m,n) plus the lattice spanned by the support
of its coefficients: for h on Z x {0}, 2N+1 independent rows.  Every solve
runs on the blocks ``coupling_blocks`` finds, the connected components of the
joint nonzero pattern; a connected pattern (generic h) is one block, the dense
solve on the whole window.  ``block_stacks`` is the one reader of blocks: it
groups them by size and yields each stack with its window indices, for the
spectra here (``block_spectrum``) and for ``heat``'s window matrices.
``vacuum_block`` is the one selector of the vacuum's block, the only block a
vacuum expectation reads: the closed form of t(k^{-2}) here and ``heat``'s
quadrature solve it alone.  A section stays sparse from assembly to solve;
only the blocks handed to LAPACK, and ``FiniteSectionOperator.entries``, are
dense.  ``as_csr`` is the one reader of dense input: a section, a pattern or a
matrix to decompose that arrives dense is read once, through its nonzero mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .algebra import (
    ConformalData,
    ModuliPoint,
    NcElement,
    _mult_section,
    mul,
)

HERMITICITY_TOL = 1e-10


class SectionError(RuntimeError):
    """Finite-section construction or diagonalization failure."""


def as_csr(mat) -> sp.csr_matrix:
    """mat as a CSR matrix equal to sp.csr_matrix(mat) entry for entry.

    A sparse mat is converted by scipy; a dense 2-D array is read once,
    through its nonzero mask (-0.0 is dropped and NaN kept, as scipy does),
    the row of each entry giving indptr.  Other shapes raise SectionError.
    """
    if sp.issparse(mat):
        return sp.csr_matrix(mat)
    a = np.asarray(mat)
    if a.ndim != 2:
        raise SectionError(f"a section is a 2-D matrix, got shape {a.shape}")
    idx = np.flatnonzero(a != 0)
    rows, cols = np.divmod(idx, a.shape[1])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=a.shape[0]))))
    return sp.csr_matrix((a.ravel()[idx], cols, indptr), shape=a.shape)


@dataclass(frozen=True)
class BasisWindow:
    """Index window |m|,|n| <= bandwidth with its deterministic enumeration."""

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
    """Sparse matrix over a basis window, optionally flagged selfadjoint.

    matrix is kept as a canonical CSR matrix (sorted indices, no duplicates):
    the real and imaginary parts of a CSR matrix share its index arrays, and
    some scipy operations sort them in place.  A dense array is accepted and
    read once by as_csr; entries is the dense matrix, built on each read.
    Here alone a selfadjoint section becomes its Hermitian part (M+M^H)/2:
    the asymmetry |M - M^H|, refused above HERMITICITY_TOL, is in diagnostics.
    """

    window: BasisWindow
    matrix: sp.csr_matrix
    selfadjoint: bool = False
    diagnostics: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.matrix = as_csr(self.matrix)
        self.matrix.sum_duplicates()
        d = self.window.dim
        if self.matrix.shape != (d, d):
            raise SectionError(
                f"matrix shape {self.matrix.shape} does not match window dim {d}"
            )
        if self.selfadjoint:
            mh = self.matrix.conj().T.tocsr()
            asym = float(abs(self.matrix - mh).max())
            if asym > HERMITICITY_TOL:
                raise SectionError(f"selfadjoint flag set but asymmetry {asym:.3e}")
            self.matrix = (self.matrix + mh) / 2.0
            self.diagnostics["asymmetry"] = asym

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.toarray()

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


def left_mult_matrix(a: NcElement, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of the left regular action of a."""
    return FiniteSectionOperator(w, _mult_section(a.theta, a.coeffs, w.bandwidth))


def right_mult_matrix(a: NcElement, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of right multiplication by a (the weighted Gram)."""
    return FiniteSectionOperator(w, _mult_section(a.theta, a.coeffs, w.bandwidth, right=True))


def ascending(values) -> np.ndarray:
    """values as a float array in ascending order: the input itself when it
    is already ascending, else a sorted copy."""
    v = np.asarray(values, dtype=float)
    return v if np.all(v[:-1] <= v[1:]) else np.sort(v)


@dataclass(frozen=True)
class Runs:
    """A sorted sequence as its values and their integer multiplicities:
    np.repeat(values, mult) is the sequence.  Adjacent values are distinct
    as found; a map applied to them afterwards may merge two."""

    values: np.ndarray
    mult: np.ndarray


def runs_of(sorted_values: np.ndarray) -> Runs:
    """The runs of equal entries of a sorted array (none for an empty one)."""
    v = sorted_values
    starts = np.flatnonzero(np.concatenate(([v.size > 0], v[1:] != v[:-1])))
    return Runs(v[starts], np.diff(starts, append=v.size))


def descending_runs(runs: Runs) -> Runs:
    """runs in descending order of value: the runs themselves when already
    descending, else reordered by a stable sort on the values."""
    v = runs.values
    if np.all(v[:-1] >= v[1:]):
        return runs
    perm = np.argsort(-v, kind="stable")
    return Runs(v[perm], runs.mult[perm])


def quadratic_form_values(tau: ModuliPoint, m, n):
    """Q(m,n) = m^2 + 2 Re(tau) m n + |tau|^2 n^2 evaluated elementwise,
    summed in place in the broadcast result: + is commutative, so the value
    is that of the expression as written, bit for bit."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    q = np.multiply(2.0 * tau.re * m, n)
    q += m * m
    q += tau.abs2 * n * n
    return q


def flat_laplacian_matrix(tau: ModuliPoint, w: BasisWindow) -> FiniteSectionOperator:
    """Diagonal section of the flat Laplacian for the modulus tau."""
    mm, nn = w.index_grids()
    diag = quadratic_form_values(tau, mm, nn)
    return FiniteSectionOperator(w, sp.diags(diag.astype(complex)), selfadjoint=True)


def _as_real_if_possible(mat: sp.csr_matrix) -> sp.csr_matrix:
    """mat with real entries if none has an imaginary part."""
    if np.iscomplexobj(mat) and not mat.imag.count_nonzero():
        return mat.real
    return mat


def coupling_blocks(*mats) -> list:
    """Index sets (ascending) of the connected components of the joint nonzero
    pattern of the mats, dense or sparse: every mat is block diagonal under
    one common permutation."""
    pattern = as_csr(mats[0]) != 0
    for m in mats[1:]:
        pattern = pattern + (as_csr(m) != 0)
    count, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def block_stacks(blocks, *mats):
    """Per block size, yield (idx, stacks): idx the (count, size) window
    indices of the blocks of that size, in the order given, and stacks the
    diagonal blocks of each sparse mat at idx, as dense (count, size, size)
    arrays.  blocks are ascending index sets; one of size dim spans the
    window and is read with one toarray()."""
    by_size: dict = {}
    for b in blocks:
        by_size.setdefault(b.size, []).append(b)
    for group in by_size.values():
        idx = np.stack(group)
        if idx.shape[1] == mats[0].shape[0]:
            yield idx, [m.toarray()[None] for m in mats]
            continue
        rows, cols = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
        yield idx, [np.asarray(m[rows.ravel(), cols.ravel()]).reshape(rows.shape) for m in mats]


def vacuum_block(w: BasisWindow, *mats):
    """The vacuum's coupling block in the joint pattern of the sparse mats:
    the vacuum's position in the block, and the dense diagonal block of each
    mat there.  The one selector of the vacuum's block, for the closed form
    of t(k^{-2}) and for heat's vacuum expectations."""
    block = next(b for b in coupling_blocks(*mats) if w.vacuum in b)
    ((_, stacks),) = block_stacks([block], *mats)
    return int(np.searchsorted(block, w.vacuum)), [s[0] for s in stacks]


def block_spectrum(solve, *mats):
    """Ascending values of solve(*stacks) over the coupling blocks of the
    joint pattern of mats, and the block count and largest block size: which
    path the solve ran."""
    blocks = coupling_blocks(*mats)
    vals = np.concatenate([np.ravel(solve(*stacks)) for _, stacks in block_stacks(blocks, *mats)])
    return np.sort(vals), {"blocks": len(blocks), "max_block": max(b.size for b in blocks)}


def perturbed_laplacian_matrix(cd: ConformalData, w: BasisWindow) -> FiniteSectionOperator:
    """Finite section of the conformally perturbed Laplacian k (flat) k: the
    Hermitian part of the sparse product K D K, K the left-multiplication
    section of the Weyl factor and D the diagonal flat Laplacian."""
    K = _as_real_if_possible(left_mult_matrix(cd.k, w).matrix)
    mm, nn = w.index_grids()
    M = K @ sp.diags(quadratic_form_values(cd.tau, mm, nn)) @ K
    return FiniteSectionOperator(w, M, selfadjoint=True)


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
    # G_phi is the transpose of the right-multiplication section of e^{-h}
    gram = right_mult_matrix(cd.k_inv2, w).matrix.T
    return (FiniteSectionOperator(w, sp.diags(d.conj() * d), selfadjoint=True),
            FiniteSectionOperator(w, gram, selfadjoint=True))


def hermitian_spectrum(op: FiniteSectionOperator) -> SpectrumResult:
    """Full ascending spectrum of a selfadjoint finite section, block by block,
    with the section's diagnostics (its asymmetry) among its own."""
    if not op.selfadjoint:
        raise SectionError("hermitian_spectrum requires the selfadjoint flag")
    try:
        ev, diag = block_spectrum(np.linalg.eigvalsh, _as_real_if_possible(op.matrix))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
        raise SectionError(f"eigensolver failed: {exc}") from exc
    return SpectrumResult(ev, {"dim": op.dim, "min_eigenvalue": float(ev[0]),
                               **op.diagnostics, **diag})


def generalized_spectrum(op: FiniteSectionOperator, gram: FiniteSectionOperator) -> SpectrumResult:
    """Ascending generalized eigenvalues of the pencil (op, gram), solved on
    the coupling blocks of their joint pattern, with the asymmetry of each
    section (None for one not flagged selfadjoint) among the diagnostics."""
    try:
        ev, diag = block_spectrum(
            lambda a, b: [sla.eigh(x, y, eigvals_only=True) for x, y in zip(a, b)],
            op.matrix, gram.matrix)
    except np.linalg.LinAlgError as exc:
        raise SectionError(
            f"Gram matrix not positive definite within tolerance: {exc}"
        ) from exc
    return SpectrumResult(ev, {"dim": op.dim, "op_asymmetry": op.diagnostics.get("asymmetry"),
                               "gram_asymmetry": gram.diagnostics.get("asymmetry"), **diag})


def trace_kinv2_matrix_route(cd: ConformalData, pad: int = 8) -> float:
    """t(k^{-2}) via the vacuum expectation of the inverse of L_{k^2}.

    The window pads the support of k^2 so the inverse approximates the true
    inverse well near the vacuum column; only the vacuum's coupling block is
    solved, for that column alone.
    """
    k2 = mul(cd.k, cd.k).trimmed(1e-14)
    w = BasisWindow(k2.support_bandwidth() + pad)
    K2 = left_mult_matrix(k2, w).matrix
    pos, (sub,) = vacuum_block(w, K2)
    vac = np.arange(sub.shape[0]) == pos
    col = np.linalg.solve(sub, vac.astype(K2.dtype))
    return float(col[pos].real)
