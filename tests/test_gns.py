"""Tests for finite sections, Laplacian matrices and spectra."""

import math

import numpy as np
import pytest

from nctorus import algebra as alg
from nctorus.algebra import (
    ConformalData,
    ModuliPoint,
    adjoint,
    add,
    make_monomial,
    mul,
    scale,
    trace_t,
    unit,
)
from nctorus import gns
from nctorus.gns import (
    BasisWindow,
    SectionError,
    flat_laplacian_matrix,
    generalized_spectrum,
    gram_laplacian_matrix,
    hermitian_spectrum,
    left_mult_matrix,
    perturbed_laplacian_matrix,
    quadratic_form_values,
    right_mult_matrix,
    vacuum_expectation,
)

U = make_monomial(1, 0)
ONE = unit()
TAU_I = ModuliPoint(0.0, 1.0)


def test_window_enumeration_round_trip():
    w = BasisWindow(3)
    assert w.dim == 49
    seen = set()
    for m in range(-3, 4):
        for n in range(-3, 4):
            idx = w.index_of(m, n)
            assert w.pair_of(idx) == (m, n)
            seen.add(idx)
    assert seen == set(range(49))
    # row-major by m then n
    assert w.index_of(-3, -3) == 0
    assert w.index_of(-3, -2) == 1
    assert w.index_of(-2, -3) == 7


def test_left_mult_identity_and_shift():
    w = BasisWindow(2)
    ident = left_mult_matrix(ONE, w)
    assert np.allclose(ident.entries, np.eye(w.dim))
    LU = left_mult_matrix(U, w).entries
    # column (m,n) maps to (m+1,n); columns with m = N are clipped to zero
    for m in range(-2, 3):
        for n in range(-2, 3):
            col = LU[:, w.index_of(m, n)]
            if m == 2:
                assert np.all(col == 0)
            else:
                expect = np.zeros(w.dim, dtype=complex)
                expect[w.index_of(m + 1, n)] = 1.0
                assert np.allclose(col, expect)


def test_left_mult_column_against_algebra():
    rng = np.random.default_rng(2)
    w = BasisWindow(5)
    a = alg.random_element(rng, 2)
    L = left_mult_matrix(a, w).entries
    for (m, n) in [(0, 0), (1, -2), (-3, 3), (2, 2)]:
        img = mul(a, make_monomial(m, n))
        col = L[:, w.index_of(m, n)]
        for idx in range(w.dim):
            p, q = w.pair_of(idx)
            assert col[idx] == pytest.approx(img.coeff(p, q), abs=1e-13)


def test_left_mult_adjoint_on_interior():
    rng = np.random.default_rng(4)
    w = BasisWindow(6)
    a = alg.random_element(rng, 2)
    L = left_mult_matrix(a, w).entries
    Ls = left_mult_matrix(adjoint(a), w).entries
    inner = BasisWindow(4)  # shrink by a.bandwidth
    idx = [w.index_of(*inner.pair_of(i)) for i in range(inner.dim)]
    sub = np.ix_(idx, idx)
    assert np.allclose(Ls[sub], L.conj().T[sub], atol=1e-12)


def test_left_mult_is_morphism_on_interior():
    rng = np.random.default_rng(6)
    w = BasisWindow(7)
    a = alg.random_element(rng, 2)
    b = alg.random_element(rng, 2)
    La = left_mult_matrix(a, w).entries
    Lb = left_mult_matrix(b, w).entries
    Lab = left_mult_matrix(mul(a, b), w).entries
    inner = BasisWindow(3)  # shrink by a.bw + b.bw
    cols = [w.index_of(*inner.pair_of(i)) for i in range(inner.dim)]
    assert np.allclose((La @ Lb)[:, cols], Lab[:, cols], atol=1e-12)


def test_flat_laplacian_diagonal():
    w = BasisWindow(3)
    D = flat_laplacian_matrix(TAU_I, w)
    assert D.selfadjoint
    mat = D.entries
    assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
    assert mat[w.index_of(0, 0), w.index_of(0, 0)] == 0.0
    assert mat[w.index_of(1, 2), w.index_of(1, 2)] == pytest.approx(5.0)
    D2 = flat_laplacian_matrix(ModuliPoint(0.0, 2.0), w)
    assert D2.entries[w.index_of(1, 1), w.index_of(1, 1)] == pytest.approx(5.0)
    assert np.all(np.diag(mat).real >= 0)


def test_flat_spectrum_enumeration():
    w = BasisWindow(3)
    spec = hermitian_spectrum(flat_laplacian_matrix(TAU_I, w))
    expect = np.sort(
        [m * m + n * n for m in range(-3, 4) for n in range(-3, 4)]
    )
    assert np.allclose(spec.eigenvalues, expect)
    tau = ModuliPoint(1.0, 1.0)
    spec2 = hermitian_spectrum(flat_laplacian_matrix(tau, w))
    expect2 = np.sort(
        [m * m + 2 * m * n + 2 * n * n for m in range(-3, 4) for n in range(-3, 4)]
    )
    assert np.allclose(spec2.eigenvalues, expect2)


def test_hermitian_spectrum_requires_flag():
    w = BasisWindow(1)
    op = left_mult_matrix(U, w)
    with pytest.raises(SectionError):
        hermitian_spectrum(op)


@pytest.fixture(scope="module")
def cd_default():
    h = scale(0.4, add(U, adjoint(U)))
    return ConformalData.build(TAU_I, h, pad=16)


def test_perturbed_reduces_to_flat(cd_default):
    flat_cd = ConformalData.build(TAU_I, alg.zero(), pad=2)
    w = BasisWindow(6)
    P = perturbed_laplacian_matrix(flat_cd, w)
    D = flat_laplacian_matrix(TAU_I, w)
    assert np.allclose(P.entries, D.entries)
    # scalar conformal factor: diagonal c^2 Q
    c = 1.3
    cs = ConformalData.build(TAU_I, scale(2 * math.log(c), unit()), pad=4)
    Pc = perturbed_laplacian_matrix(cs, w)
    assert np.allclose(np.diag(Pc.entries).real,
                       c * c * np.diag(D.entries).real, rtol=1e-9)


def test_perturbed_positive(cd_default):
    w = BasisWindow(10)
    P = perturbed_laplacian_matrix(cd_default, w)
    spec = hermitian_spectrum(P, positive=True)
    assert spec.eigenvalues.min() >= -1e-8
    assert P.diagnostics["asymmetry"] < 1e-12
    # the positive flag rejects indefinite sections
    shifted = gns.FiniteSectionOperator(
        w, P.entries - np.eye(w.dim), selfadjoint=True
    )
    with pytest.raises(SectionError):
        hermitian_spectrum(shifted, positive=True)


def test_gram_pencil_flat_case():
    flat_cd = ConformalData.build(TAU_I, alg.zero(), pad=2)
    w = BasisWindow(4)
    op, gm = gram_laplacian_matrix(flat_cd, w)
    assert np.allclose(gm.entries, np.eye(w.dim))
    mm, nn = w.index_grids()
    expect = np.abs(mm + (0 - 1j) * nn) ** 2
    assert np.allclose(np.diag(op.entries).real, expect)


def test_gram_entries_match_phi_definition(cd_default):
    """Spot-check G_phi[(m,n),(p,q)] = phi((U^p V^q)* U^m V^n)."""
    w = BasisWindow(3)
    _, gm = gram_laplacian_matrix(cd_default, w)
    rng = np.random.default_rng(8)
    for _ in range(20):
        m, n, p, q = rng.integers(-3, 4, size=4)
        lhs = gm.entries[w.index_of(m, n), w.index_of(p, q)]
        rhs = alg.phi(
            mul(adjoint(make_monomial(p, q)), make_monomial(m, n)), cd_default
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pencil_kernel_dimension_one(cd_default):
    w = BasisWindow(5)
    op, gm = gram_laplacian_matrix(cd_default, w)
    spec = generalized_spectrum(op, gm)
    assert np.sum(spec.eigenvalues < 1e-10) == 1


def test_pencil_matches_perturbed_spectrum(cd_default):
    """Cross-construction: pencil and K D K agree on low eigenvalues."""
    w = BasisWindow(12)
    op, gm = gram_laplacian_matrix(cd_default, w)
    pencil = generalized_spectrum(op, gm).eigenvalues
    direct = hermitian_spectrum(perturbed_laplacian_matrix(cd_default, w)).eigenvalues
    # skip the shared kernel mode, compare the next ten
    rel = np.abs(pencil[1:11] - direct[1:11]) / direct[1:11]
    assert np.max(rel) < 0.02


def test_spectral_convergence_in_window(cd_default):
    # low fixed-index eigenvalues converge monotonically as the window grows;
    # the lowest modes saturate at rounding level already by N = 8, so the
    # shrink test watches a band where the finite-section error is still live
    specs = []
    for N in (8, 12, 16, 24):
        specs.append(
            hermitian_spectrum(
                perturbed_laplacian_matrix(cd_default, BasisWindow(N))
            ).eigenvalues
        )
    lowest = [s[1:6] for s in specs]
    assert all(np.max(np.abs(b - a)) < 1e-10 for a, b in zip(lowest, lowest[1:]))
    band = [s[80:90] for s in specs]
    diffs = [np.max(np.abs(b - a)) for a, b in zip(band, band[1:])]
    assert diffs[1] <= diffs[0] and diffs[2] <= diffs[1]


def test_vacuum_expectation(cd_default):
    w = BasisWindow(4)
    assert vacuum_expectation(left_mult_matrix(ONE, w)) == pytest.approx(1.0)
    rng = np.random.default_rng(10)
    a = alg.random_element(rng, 2)
    assert vacuum_expectation(left_mult_matrix(a, w)) == pytest.approx(
        trace_t(a), abs=1e-13
    )


def test_trace_kinv2_routes_agree(cd_default):
    from scipy.special import iv

    matrix_route = gns.trace_kinv2_matrix_route(cd_default, pad=8)
    neumann = alg.invert_positive(mul(cd_default.k, cd_default.k).trimmed(1e-15), 24)
    algebra_route = trace_t(neumann).real
    assert matrix_route == pytest.approx(algebra_route, abs=1e-8)
    assert matrix_route == pytest.approx(float(iv(0, 0.8)), abs=1e-8)


def test_right_mult_matches_algebra():
    rng = np.random.default_rng(12)
    w = BasisWindow(5)
    a = alg.random_element(rng, 2)
    R = right_mult_matrix(a, w).entries
    for (m, n) in [(0, 0), (2, -1), (-1, 3)]:
        img = mul(make_monomial(m, n), a)
        col = R[:, w.index_of(m, n)]
        for idx in range(w.dim):
            p, q = w.pair_of(idx)
            assert col[idx] == pytest.approx(img.coeff(p, q), abs=1e-13)


def _rel_gap(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def test_coupling_blocks_of_u_plus_u_star():
    for N in (3, 6):
        w = BasisWindow(N)
        blocks = gns.coupling_blocks(left_mult_matrix(add(U, adjoint(U)), w).entries)
        assert len(blocks) == 2 * N + 1
        assert all(b.size == 2 * N + 1 for b in blocks)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(w.dim))
        # each block is one row n = const of the window
        assert all(len({w.pair_of(i)[1] for i in b}) == 1 for b in blocks)


def test_block_path_matches_dense_reference(block_case):
    import scipy.linalg as sla

    cd, expect = block_case
    N = 8
    w = BasisWindow(N)
    n_blocks, largest = expect(N)
    P = perturbed_laplacian_matrix(cd, w)
    assert (P.diagnostics["blocks"], P.diagnostics["max_block"]) == (n_blocks, largest)
    K = left_mult_matrix(cd.k, w).entries
    dense = K @ flat_laplacian_matrix(cd.tau, w).entries @ K
    dense = (dense + dense.conj().T) / 2.0
    assert _rel_gap(P.entries, dense) < 1e-10

    spec = hermitian_spectrum(P)
    assert (spec.diagnostics["blocks"], spec.diagnostics["max_block"]) == (n_blocks, largest)
    assert _rel_gap(spec.eigenvalues, np.linalg.eigvalsh(dense)) < 1e-10

    op, gm = gram_laplacian_matrix(cd, w)
    pencil = generalized_spectrum(op, gm)
    assert pencil.diagnostics["blocks"] == n_blocks
    ref = sla.eigh(op.entries, gm.entries, eigvals_only=True)
    assert _rel_gap(pencil.eigenvalues, ref) < 1e-10

    k2 = mul(cd.k, cd.k).trimmed(1e-14)
    w2 = BasisWindow(k2.support_bandwidth() + 8)
    vacuum_col = np.linalg.solve(left_mult_matrix(k2, w2).entries,
                                 np.eye(w2.dim)[:, w2.vacuum])
    assert gns.trace_kinv2_matrix_route(cd, pad=8) == pytest.approx(
        vacuum_col[w2.vacuum].real, rel=1e-10
    )
