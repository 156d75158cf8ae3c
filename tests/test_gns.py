"""Tests for finite sections, Laplacian matrices and spectra."""

import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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
    Runs,
    SectionError,
    descending_runs,
    flat_laplacian_matrix,
    generalized_spectrum,
    gram_laplacian_matrix,
    hermitian_spectrum,
    left_mult_matrix,
    perturbed_laplacian_matrix,
    quadratic_form_values,
    right_mult_matrix,
    runs_of,
)
from nctorus.spectral import CountingData, SpectralError

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


@pytest.mark.parametrize("band", [-1, -3])
def test_window_rejects_negative_bandwidth(band):
    with pytest.raises(SectionError, match="bandwidth"):
        BasisWindow(band)
    assert BasisWindow(0).dim == 1


def _nearly_hermitian(eps):
    """A complex Hermitian 9 x 9 matrix with eps added above the diagonal
    at (0, 1): its asymmetry |M - M^H| is eps to rounding."""
    rng = np.random.default_rng(24)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = a + a.conj().T
    m[0, 1] += eps
    return m


def test_selfadjoint_section_refuses_asymmetry():
    m = _nearly_hermitian(1e-9)
    with pytest.raises(SectionError, match="asymmetry"):
        gns.FiniteSectionOperator(BasisWindow(1), m, selfadjoint=True)
    # without the flag the matrix is kept as given
    op = gns.FiniteSectionOperator(BasisWindow(1), m)
    assert np.array_equal(op.entries, m) and op.diagnostics == {}


def test_selfadjoint_section_is_its_hermitian_part():
    m = _nearly_hermitian(1e-12)
    op = gns.FiniteSectionOperator(BasisWindow(1), sp.csr_matrix(m), selfadjoint=True)
    assert np.array_equal(op.entries, (m + m.conj().T) / 2.0)
    assert np.array_equal(op.entries, op.entries.conj().T)
    asym = op.diagnostics["asymmetry"]
    assert asym == np.max(np.abs(m - m.conj().T))
    assert 0.5e-12 < asym < 2e-12


def _dense_cases():
    """name -> dense 2-D array: the dtypes, shapes and entries whose CSR form
    as_csr must give exactly as scipy does."""
    rng = np.random.default_rng(28)
    a = rng.standard_normal((3, 5))
    a[a < 0.3] = 0.0
    return {
        "complex": a + 1j * a[::-1],
        "real": a,
        "int": np.round(10.0 * a).astype(np.int64),
        "bool": a != 0.0,
        "zero": np.zeros((4, 4)),
        "1x1": np.array([[2.5]]),
        "1x1 zero": np.array([[0.0]]),
        "fortran": np.asfortranarray(a),
        "nan and -0.0": np.array([[np.nan, -0.0, 1.0], [0.0, -0.0, np.nan]]),
        "section": left_mult_matrix(add(U, adjoint(U)), BasisWindow(3)).entries,
    }


@pytest.mark.parametrize("name", sorted(_dense_cases()))
def test_as_csr_equals_scipy_conversion(name):
    """The mask read of a dense array is scipy's dense-to-CSR conversion
    entry for entry: data, indices, indptr, their dtypes and the canonical
    format."""
    a = _dense_cases()[name]
    got, ref = gns.as_csr(a), sp.csr_matrix(a)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    for part in ("data", "indices", "indptr"):
        x, y = getattr(got, part), getattr(ref, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part
    assert got.has_canonical_format and ref.has_canonical_format
    # a sparse argument is scipy's own conversion
    again = gns.as_csr(sp.coo_matrix(ref))
    assert np.array_equal(again.toarray(), ref.toarray(), equal_nan=True)


@pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
def test_as_csr_rejects_non_matrix(shape):
    with pytest.raises(SectionError, match="2-D"):
        gns.as_csr(np.ones(shape))


@pytest.mark.parametrize("kind", ["nearly hermitian", "k squared"])
def test_dense_selfadjoint_section_equals_sparse(kind, cd_default):
    """A selfadjoint section built from a dense array is the one built from
    its sparse matrix, asymmetry included."""
    if kind == "nearly hermitian":
        w, m = BasisWindow(1), sp.csr_matrix(_nearly_hermitian(1e-12))
    else:
        w = BasisWindow(6)
        m = left_mult_matrix(mul(cd_default.k, cd_default.k), w).matrix
    dense = gns.FiniteSectionOperator(w, m.toarray(), selfadjoint=True)
    sparse = gns.FiniteSectionOperator(w, m, selfadjoint=True)
    for part in ("data", "indices", "indptr"):
        assert getattr(dense.matrix, part).tobytes() == getattr(sparse.matrix, part).tobytes()
    assert dense.diagnostics == sparse.diagnostics and "asymmetry" in dense.diagnostics


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
    spec = hermitian_spectrum(P)
    assert spec.eigenvalues.min() >= -1e-8
    assert P.diagnostics["asymmetry"] < 1e-12
    # the counting data rejects the spectrum of an indefinite section
    shifted = gns.FiniteSectionOperator(
        w, P.entries - np.eye(w.dim), selfadjoint=True
    )
    with pytest.raises(SpectralError):
        CountingData(hermitian_spectrum(shifted).eigenvalues, source_bandwidth=w.bandwidth)


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


def test_pencil_reports_both_asymmetries(cd_default):
    """The pencil's spectrum carries the asymmetry of each of its sections."""
    op, gm = gram_laplacian_matrix(cd_default, BasisWindow(5))
    diag = generalized_spectrum(op, gm).diagnostics
    assert diag["op_asymmetry"] == op.diagnostics["asymmetry"]
    assert diag["gram_asymmetry"] == gm.diagnostics["asymmetry"]


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
    assert left_mult_matrix(ONE, w).matrix[w.vacuum, w.vacuum] == pytest.approx(1.0)
    rng = np.random.default_rng(10)
    a = alg.random_element(rng, 2)
    assert left_mult_matrix(a, w).matrix[w.vacuum, w.vacuum] == pytest.approx(
        trace_t(a), abs=1e-13
    )


def test_trace_kinv2_routes_agree(cd_default):
    from scipy.special import iv

    # the inverse of the section of k k against the exponential e^{-h}
    matrix_route = gns.trace_kinv2_matrix_route(cd_default, pad=8)
    assert matrix_route == pytest.approx(trace_t(cd_default.k_inv2).real, abs=1e-13)
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


def _assert_block_stacks_read_blocks(*mats):
    """block_stacks against hand-sliced blocks: each row of each idx with its
    stack, one proper block alone, and the block that spans the window."""
    blocks = gns.coupling_blocks(*mats)
    seen = []
    for idx, stacks in gns.block_stacks(blocks, *mats):
        assert len(stacks) == len(mats)
        for i, b in enumerate(idx):
            seen.append(b)
            for m, stack in zip(mats, stacks):
                assert np.array_equal(stack[i], m[b][:, b].toarray())
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(mats[0].shape[0]))
    b = next((b for b in blocks if b.size < mats[0].shape[0]), None)
    if b is not None:
        ((idx, stacks),) = gns.block_stacks([b], *mats)
        assert np.array_equal(idx, b[None])
        for m, stack in zip(mats, stacks):
            assert np.array_equal(stack, m[b][:, b].toarray()[None])
    ((idx, stacks),) = gns.block_stacks([np.arange(mats[0].shape[0])], *mats)
    for m, stack in zip(mats, stacks):
        assert np.array_equal(stack, m.toarray()[None])


def test_block_stacks_read_the_blocks(block_case):
    cd, _ = block_case
    w = BasisWindow(4)
    _assert_block_stacks_read_blocks(perturbed_laplacian_matrix(cd, w).matrix,
                                     left_mult_matrix(cd.k, w).matrix)


def test_block_stacks_read_blocks_that_differ():
    """Under the flat metric V + V* couples each column m alone, and the
    diagonal Q(m, n) makes every column's section different."""
    w = BasisWindow(4)
    V = make_monomial(0, 1)
    mats = (flat_laplacian_matrix(ModuliPoint(0.3, 0.8), w).matrix,
            left_mult_matrix(add(V, adjoint(V)), w).matrix)
    assert len(gns.coupling_blocks(*mats)) == w.side
    _assert_block_stacks_read_blocks(*mats)


def test_block_path_matches_dense_reference(block_case):
    import scipy.linalg as sla

    cd, expect = block_case
    N = 8
    w = BasisWindow(N)
    n_blocks, largest = expect(N)
    P = perturbed_laplacian_matrix(cd, w)
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


def test_noncanonical_csr_section_keeps_its_spectrum():
    """A CSR input with unsorted column indices and duplicate entries is
    canonicalized on construction: the real and imaginary parts of a CSR
    matrix share its index arrays, so sorting them in place would scramble a
    non-canonical matrix."""
    rng = np.random.default_rng(14)
    w = BasisWindow(1)
    a = rng.standard_normal((w.dim, w.dim)) + 1j * rng.standard_normal((w.dim, w.dim))
    a[np.abs(a) < 0.8] = 0.0
    a = a + a.conj().T
    r, c = np.nonzero(a)
    # every entry stored twice as two halves, columns descending within a row
    rows, cols = np.concatenate([r, r]), np.concatenate([c, c])
    vals = np.concatenate([a[r, c], a[r, c]]) / 2.0
    order = np.lexsort((-cols, rows))
    indptr = np.searchsorted(rows[order], np.arange(w.dim + 1))
    mat = sp.csr_matrix((vals[order], cols[order], indptr), shape=a.shape)
    assert not mat.has_sorted_indices
    dense = mat.toarray()
    assert np.allclose(dense, a)
    op = gns.FiniteSectionOperator(w, mat, selfadjoint=True)
    assert np.array_equal(op.entries, dense)
    assert _rel_gap(hermitian_spectrum(op).eigenvalues, np.linalg.eigvalsh(dense)) < 1e-13


def test_perturbed_section_stays_sparse(cd_default):
    """At N = 48 the rank-1 K D K holds no more entries than its coupling
    blocks of K can carry."""
    w = BasisWindow(48)
    P = perturbed_laplacian_matrix(cd_default, w)
    K = left_mult_matrix(cd_default.k, w).matrix
    bound = sum(b.size ** 2 for b in gns.coupling_blocks(K))
    assert P.matrix.nnz <= bound < w.dim ** 2 // 50


def test_runs_of_sorted_values():
    v = np.array([0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 4.0])
    r = runs_of(v)
    assert (r.values.tolist(), r.mult.tolist()) == ([0.0, 1.0, 2.5, 4.0], [1, 2, 3, 1])
    assert int(r.mult.sum()) == v.size
    assert np.repeat(r.values, r.mult).tobytes() == v.tobytes()
    empty = runs_of(np.empty(0))
    assert int(empty.mult.sum()) == 0 and empty.values.size == 0


def test_descending_runs_sorts_only_unsorted_runs():
    down = Runs(np.array([4.0, 2.5, 1.0, 0.0]), np.array([1, 3, 2, 1]))
    assert descending_runs(down) is down
    mixed = Runs(np.array([2.5, 0.0, 4.0, 1.0]), np.array([3, 1, 1, 2]))
    out = descending_runs(mixed)
    assert out.values.tobytes() == down.values.tobytes()
    assert out.mult.tobytes() == down.mult.tobytes()
    assert mixed.values.tolist() == [2.5, 0.0, 4.0, 1.0]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_verify_criteria_3_and_10_memory(tmp_path):
    """`nctorus verify --criteria 3,10` on one BLAS thread peaks below 300 MB.

    The peak is the child's own VmHWM: its ru_maxrss would carry over the
    peak of the launching process (here pytest) across exec."""
    import subprocess
    import sys
    from pathlib import Path

    import nctorus

    src = str(Path(nctorus.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys\n"
            "from nctorus.cli import main\n"
            "rc = main(['verify', '--criteria', '3,10', '--out', sys.argv[1]])\n"
            "print(next(line for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')).split()[1])\n"
            "sys.exit(rc)\n")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    peak_mb = int(run.stdout.split()[-1]) / 1024.0
    assert peak_mb < 300.0


def _q_written_out(tau, m, n):
    """Q as the expression of its definition, the reference of the in-place sum."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return m * m + 2.0 * tau.re * m * n + tau.abs2 * n * n


_Q_ENTRIES = st.one_of(st.integers(-500, 500), st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from(["0-d", "1-d", "broadcast"]),
       re=st.one_of(st.sampled_from([-0.45, 0.0, 0.3, 1.0]),
                    st.floats(-2.0, 2.0, allow_nan=False)),
       im=st.floats(0.1, 3.0))
def test_quadratic_form_in_place_equals_written_out(data, shape, re, im):
    """The in-place Q equals m*m + 2 Re(tau) m n + |tau|^2 n*n bit for bit,
    on scalars, on vectors and on a (1, W) x (H, 1) grid, int or float."""
    tau = ModuliPoint(re, im)
    if shape == "0-d":
        m, n = data.draw(_Q_ENTRIES), data.draw(_Q_ENTRIES)
    else:
        width = data.draw(st.integers(1, 12))
        m = data.draw(st.lists(_Q_ENTRIES, min_size=width, max_size=width))
        height = width if shape == "1-d" else data.draw(st.integers(1, 12))
        n = data.draw(st.lists(_Q_ENTRIES, min_size=height, max_size=height))
        if shape == "broadcast":
            m, n = np.array(m)[None, :], np.array(n)[:, None]
    got, want = np.asarray(quadratic_form_values(tau, m, n)), _q_written_out(tau, m, n)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tau", [TAU_I, ModuliPoint(0.3, 0.8), ModuliPoint(-0.45, 1.3),
                                 ModuliPoint(1.0, 1.0)])
def test_quadratic_form_is_even_bit_for_bit(tau):
    """Q(-m, -n) == Q(m, n) bit for bit on the band-60 box: the half-box
    disk and the row count take each half-box value twice."""
    ms = np.arange(-60, 61)
    q = quadratic_form_values(tau, ms[None, :], ms[:, None])
    assert q.tobytes() == q[::-1, ::-1].copy().tobytes()
    assert q.tobytes() == _q_written_out(tau, ms[None, :], ms[:, None]).tobytes()
