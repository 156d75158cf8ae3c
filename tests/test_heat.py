"""Tests for parametrix expressions, contour calculus and heat coefficients."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import iv

from nctorus import algebra as alg
from nctorus.algebra import (
    GOLDEN,
    ConformalData,
    ModuliPoint,
    adjoint,
    add,
    coeff_key,
    make_monomial,
    mul,
    scale,
    unit,
)
from nctorus.gns import BasisWindow, left_mult_matrix
from nctorus import gns, heat
from nctorus.heat import (
    B0,
    ContourSpec,
    HeatError,
    contour_gate,
    delta_expr,
    eval_expr,
    heat_coefficient,
    heat_trace,
    heat_trace_fit,
    laplace_symbol,
    parametrix_residual,
    parametrix_terms,
    trimmed_symbol_data,
    xi_derivative_expr,
)
from nctorus.spectral import lattice_disk_eigenvalues, lattice_eigenvalues
from nctorus.symbols import PolySymbol, compose_poly, flat_laplacian_symbol

TAU_I = ModuliPoint(0.0, 1.0)
U = make_monomial(1, 0)
U2 = make_monomial(2, 0)
V = make_monomial(0, 1)
ONE = unit()


@pytest.fixture(scope="module")
def cd_default():
    h = scale(0.4, add(U, adjoint(U)))
    return ConformalData.build(TAU_I, h, pad=16)


@pytest.fixture(scope="module")
def ls_default(cd_default):
    return laplace_symbol(cd_default)


def test_laplace_symbol_flat_and_scalar():
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    ls = laplace_symbol(flat)
    assert not ls.a1_1.coeffs and not ls.a1_2.coeffs and not ls.a0.coeffs
    assert ls.k2.isclose(ONE, 1e-12)
    s = 0.3
    scal = ConformalData.build(TAU_I, scale(s, unit()), pad=4)
    ls2 = laplace_symbol(scal)
    assert not ls2.a1_1.coeffs and not ls2.a0.coeffs
    assert ls2.k2.coeff(0, 0).real == pytest.approx(math.exp(s), rel=1e-10)


def test_laplace_symbol_matches_composition_oracle(cd_default, ls_default):
    """All layers of the symbol agree with sigma(L_k) o sigma(flat) o sigma(L_k)."""
    tau = cd_default.tau
    k_sym = PolySymbol(GOLDEN, {(0, 0): cd_default.k})
    inner = compose_poly(flat_laplacian_symbol(tau, GOLDEN), k_sym)
    full = compose_poly(k_sym, inner)
    ls = ls_default
    expect = {
        (2, 0): ls.k2,
        (1, 1): scale(2.0 * tau.re, ls.k2),
        (0, 2): scale(tau.abs2, ls.k2),
        (1, 0): ls.a1_1,
        (0, 1): ls.a1_2,
        (0, 0): ls.a0,
    }
    for key, want in expect.items():
        got = full.monomials.get(key, alg.zero())
        assert got.isclose(want, 1e-10), f"mismatch at xi-monomial {key}"


def test_k2_is_formed_once(block_case):
    """ConformalData keeps the k k its check forms: cd.k2 is mul(k, k) byte
    for byte, and the symbol's k2 is that product trimmed at 1e-14, on the
    flat, rank-1, parity and generic Weyl factors."""
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    for cd in (flat, block_case[0]):
        kk = mul(cd.k, cd.k)
        assert coeff_key(cd.k2) == coeff_key(kk)
        assert coeff_key(laplace_symbol(cd).k2) == coeff_key(kk.trimmed(1e-14))


def test_parametrix_flat_terms_vanish():
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    pt = parametrix_terms(laplace_symbol(flat))
    assert tuple(map(len, pt)) == (1, 0, 0)


def test_parametrix_b1_contains_first_order_term(ls_default):
    # for h along the U axis with tau = i the xi2 channels vanish identically,
    # leaving the -b0 a1 b0 leaf and one derivative leaf
    terms = parametrix_terms(ls_default)[1]
    assert len(terms) == 2
    # the -b0 a1 b0 contribution: word (B0, a1_1, B0) with polynomial -xi1
    keys = {heat._word_key(w): p for p, w in terms}
    want = ("B0", heat.ElementAtom(ls_default.a1_1).key, "B0")
    assert want in keys
    assert keys[want].get((1, 0)) == pytest.approx(-1.0)


def test_resolvent_times_symbol_is_identity(ls_default):
    w = BasisWindow(6)
    lam = -2.0 + 1.5j
    xi = (1.2, -0.7)
    b0m = eval_expr(B0, xi, lam, w, ls_default).entries
    qv = xi[0] ** 2 + xi[1] ** 2
    a2m = qv * left_mult_matrix(ls_default.k2, w).entries - lam * np.eye(w.dim)
    assert np.max(np.abs(b0m @ a2m - np.eye(w.dim))) < 1e-12


def test_eval_rejects_near_singular(ls_default):
    w = BasisWindow(4)
    k2m = left_mult_matrix(ls_default.k2, w).entries
    lam = float(np.linalg.eigvalsh((k2m + k2m.conj().T) / 2.0)[3])
    with pytest.raises(HeatError):
        eval_expr(B0, (1.0, 0.0), lam + 0.0j, w, ls_default)


def test_eval_expr_matches_dense_inverse(block_case):
    """The eigenbasis evaluator against the dense route: inv(Q(xi) L_{k^2} - lambda)
    multiplied out over the normal-form words in the standard basis."""
    cd, _ = block_case
    ls = laplace_symbol(cd)
    w = BasisWindow(3)
    xi, lam = (0.8, -0.5), -1.0 + 2.0j
    c0, c1, c2 = ls.a2_q
    q = c0 * xi[0] ** 2 + c1 * xi[0] * xi[1] + c2 * xi[1] ** 2
    b0m = np.linalg.inv(q * left_mult_matrix(ls.k2, w).entries - lam * np.eye(w.dim))

    def dense(e):
        total = np.zeros((w.dim, w.dim), dtype=complex)
        for poly, word in e:
            m = np.eye(w.dim)
            for f in word:
                m = m @ (b0m if isinstance(f, heat.Resolvent) else
                         left_mult_matrix(f.elem, w).entries)
            total += sum(c * xi[0] ** e1 * xi[1] ** e2 for (e1, e2), c in poly.items()) * m
        return total

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    for b in parametrix_terms(ls)[1:]:
        assert_close(eval_expr(b, xi, lam, w, ls).entries, dense(b))
    # the delta leaf of the leading symbol term Q(xi) k^2: Q(xi) delta(k^2)
    for axis in (1, 2):
        dk2 = left_mult_matrix(alg.delta(axis, ls.k2), w).entries
        d_a2 = delta_expr(heat.symbol_term_expr(ls, 2), axis, ls)
        assert_close(eval_expr(d_a2, xi, lam, w, ls).entries, q * dk2)


def _whole_window(monkeypatch):
    """Make every solve run on one block that spans the window, the dense
    reference: heat's window matrices and gns.vacuum_block, the vacuum read
    of heat_coefficient, both find their blocks through coupling_blocks."""
    for module in (heat, gns):
        monkeypatch.setattr(module, "coupling_blocks",
                            lambda *mats: [np.arange(mats[0].shape[0])])


def test_block_engine_matches_whole_window(block_case, monkeypatch):
    """b0, b2 and eval_expr on the parametrix terms, solved on the coupling
    blocks, against the same engine on one block spanning the window.  The
    reference takes the radial cut of the block run: the window's smallest
    eigenvalue, which sets the default cut, may lie in another block."""
    cd, _ = block_case
    ls = laplace_symbol(cd)
    w = BasisWindow(3)
    xi, lam = (0.8, -0.5), -1.0 + 2.0j

    def run(rmax=(None, None)):
        b0 = heat_coefficient(0, trimmed_symbol_data(ls, 1e-6), rmax=rmax[0], window_pad=2)
        b2 = heat_coefficient(2, trimmed_symbol_data(ls, 1e-4), contour=ContourSpec(nodes=64),
                              radial_nodes=16, rmax=rmax[1], window_pad=1)
        return b0, b2, [eval_expr(b, xi, lam, w, ls).entries
                        for b in parametrix_terms(ls)]

    b0, b2, mats = run()
    _whole_window(monkeypatch)
    ref_b0, ref_b2, ref_mats = run((b0.params["rmax"], b2.params["rmax"]))
    assert abs(b0.value - ref_b0.value) <= 1e-12 * abs(ref_b0.value)
    assert abs(b2.value - ref_b2.value) <= 1e-14
    for got, want in zip(mats, ref_mats):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("h, atom", [
    (scale(0.4, add(U, adjoint(U))), V),    # joins the rows of k^2 into one block
    (scale(0.2, add(U2, adjoint(U2))), U),  # joins the even and odd m of each row
    (alg.zero(), V),                        # columns m, which differ by the phase of V
], ids=["rank1-V", "parity-U", "flat-V"])
def test_eval_expr_atom_across_blocks(h, atom, monkeypatch):
    """An element factor that couples the blocks of k^2: the engine solves the
    blocks of the joint pattern."""
    ls = laplace_symbol(ConformalData.build(TAU_I, h, pad=16))
    w = BasisWindow(3)
    xi, lam = (0.8, -0.5), -1.0 + 2.0j
    e = heat._prod(B0, heat._atom(atom, "x"), B0)
    got = eval_expr(e, xi, lam, w, ls).entries
    _whole_window(monkeypatch)
    want = eval_expr(e, xi, lam, w, ls).entries
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_heat_coefficient_solves_the_vacuum_block(block_case, request):
    """The quadrature solves the vacuum's block alone: the lattice that supp(h)
    generates meets the window of bandwidth W in 2W+1 sites (rank-1), in the
    sites of even m on the row n = 0 (parity), or in all (2W+1)^2 (generic)."""
    cd, _ = block_case
    res = heat_coefficient(0, trimmed_symbol_data(laplace_symbol(cd), 1e-6), window_pad=2)
    W = res.params["window"]
    want = {"rank1": 2 * W + 1, "parity": 2 * (W // 2) + 1, "generic": (2 * W + 1) ** 2}
    assert res.params["block"] == want[request.node.callspec.params["block_case"]]


def test_xi_derivative_matches_finite_differences(ls_default):
    w = BasisWindow(5)
    lam = -1.0 + 2.0j
    xi = (0.9, 0.6)
    for b in parametrix_terms(ls_default):
        errs = []
        for hstep in (1e-3, 5e-4):
            for axis, e1 in ((1, (hstep, 0.0)), (2, (0.0, hstep))):
                plus = eval_expr(b, (xi[0] + e1[0], xi[1] + e1[1]), lam, w, ls_default).entries
                minus = eval_expr(b, (xi[0] - e1[0], xi[1] - e1[1]), lam, w, ls_default).entries
                fd = (plus - minus) / (2 * hstep)
                exact = eval_expr(
                    xi_derivative_expr(b, axis, ls_default), xi, lam, w, ls_default
                ).entries
                errs.append((hstep, float(np.max(np.abs(fd - exact)))))
        # second-order convergence: halving h divides the error by about four
        by_h = {}
        for hstep, err in errs:
            by_h.setdefault(hstep, []).append(err)
        e1 = max(by_h[1e-3])
        e2 = max(by_h[5e-4])
        order = math.log(e1 / e2) / math.log(2.0)
        assert order > 1.9


def test_delta_is_commutator_on_symbol_terms(block_case):
    """delta_j of each symbol term a0, a1, a2, the words the parametrix
    recursion derives, and of their product a2 a1 a0 evaluates to the
    commutator with D_j = diag(m) or diag(n) of the window: the Leibniz rule
    over the words and the element rule together.  D_j is diagonal, so the
    identity holds on any window."""
    cd, _ = block_case
    ls = laplace_symbol(cd)
    w = BasisWindow(3)
    xi, lam = (0.8, -0.5), -1.0 + 2.0j
    terms = [heat.symbol_term_expr(ls, k) for k in range(3)]
    for e in terms + [heat._prod(*terms[::-1])]:
        m = eval_expr(e, xi, lam, w, ls).entries
        for axis, grid in zip((1, 2), w.index_grids()):
            d = np.diag(grid.astype(float))
            got = eval_expr(delta_expr(e, axis, ls), xi, lam, w, ls).entries
            assert np.max(np.abs(got - (d @ m - m @ d))) <= 1e-12 * np.max(np.abs(m))


def test_delta_of_the_resolvent_raises(ls_default):
    """delta_expr derives words of element factors only: a word holding the
    resolvent B0, such as each parametrix term b_j, raises HeatError."""
    for b in parametrix_terms(ls_default)[:2]:
        with pytest.raises(HeatError, match="resolvent"):
            delta_expr(b, 1, ls_default)


def test_contour_matches_matrix_exponential():
    """(1/2 pi i) contour-int e^{-lam} (M - lam)^{-1} d lam == expm(-M)."""
    rng = np.random.default_rng(31)
    contour = ContourSpec()
    lam, wq = contour.points()
    for _ in range(3):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = a @ a.conj().T / 5.0 + 0.1 * np.eye(5)  # Hermitian positive
        acc = np.zeros((5, 5), dtype=complex)
        for lv, wv in zip(lam, wq):
            acc += wv * math.e ** 0 * np.exp(-lv) * np.linalg.inv(m - lv * np.eye(5))
        want = sla.expm(-m)
        assert np.max(np.abs(acc - want)) < 1e-8


def test_contour_gate_values():
    contour = ContourSpec()
    err = contour_gate(contour, s_max=200.0)
    assert err < 1e-9
    bad = ContourSpec(nodes=10)
    with pytest.raises(HeatError):
        contour_gate(bad, s_max=200.0)


def test_heat_b0_flat_tau_i():
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    res = heat_coefficient(0, laplace_symbol(flat))
    assert res.value == pytest.approx(math.pi, abs=1e-6)
    assert res.imag_residual < 1e-10


def test_heat_b0_flat_tau_2i():
    flat = ConformalData.build(ModuliPoint(0.0, 2.0), alg.zero(), pad=2)
    res = heat_coefficient(0, laplace_symbol(flat))
    assert res.value == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_heat_b0_perturbed_matches_closed_form(ls_default):
    res = heat_coefficient(0, ls_default)
    closed = math.pi * float(iv(0, 0.8))
    assert res.value == pytest.approx(closed, rel=1e-4)
    assert res.tail < 1e-8


def test_heat_b0_scaling_covariance(cd_default, ls_default):
    """Replacing k by c k divides the coefficient by c^2."""
    c = 1.25
    h2 = add(cd_default.h, scale(2.0 * math.log(c), unit()))
    cd2 = ConformalData.build(TAU_I, h2, pad=16)
    res1 = heat_coefficient(0, ls_default)
    res2 = heat_coefficient(0, laplace_symbol(cd2))
    assert res2.value == pytest.approx(res1.value / (c * c), rel=1e-6)


def test_heat_reports_k2_asymmetry(ls_default):
    """params carry the asymmetry of the window section of k^2, which
    FiniteSectionOperator refuses above HERMITICITY_TOL: rank-1 b0, and
    flat b0 and b2 (whose terms vanish)."""
    flat = laplace_symbol(ConformalData.build(TAU_I, alg.zero(), pad=2))
    for n, ls in ((0, ls_default), (0, flat), (2, flat)):
        asym = heat_coefficient(n, ls).params["k2_asymmetry"]
        assert 0.0 <= asym <= gns.HERMITICITY_TOL


def test_heat_b2_flat_zero():
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    res = heat_coefficient(2, laplace_symbol(flat))
    assert res.value == 0.0
    # the vanishing term keeps the computed params and says why it is 0
    assert res.params["radial_nodes"] == 24 and res.params["window"] == 4
    assert "vanishes identically" in res.params["note"]


def test_heat_b2_perturbed_finite(ls_default):
    res = heat_coefficient(2, trimmed_symbol_data(ls_default, 1e-5), radial_nodes=16,
                           contour=ContourSpec(nodes=64))
    assert np.isfinite(res.value)
    assert res.imag_residual < 1e-6 * (1.0 + abs(res.value))


def _per_node_heat(n, ls, contour, window_pad):
    """(value, tail, imaginary residual) of heat_coefficient at its default
    radial rule and cut, by the per-node loop: every word evaluated once per
    radial node, on that node's resolvent diagonals alone."""
    radial_nodes = 64 if n == 0 else 24
    if window_pad is None:
        window_pad = 8 if n == 0 else 4
    if contour is None:
        contour = ContourSpec()
    if n == 2:
        ls = trimmed_symbol_data(ls, 1e-7)
    terms = B0 if n == 0 else parametrix_terms(ls)[2]
    window = BasisWindow(ls.k2.support_bandwidth() + window_pad)
    keys, sections, _ = heat._window_sections(ls, window, (terms,))
    pos, (k2, *subs) = gns.vacuum_block(window, *sections)
    eig = heat._Eigenblocks(k2, dict(zip(keys, subs)))
    vac = np.conj(eig.basis[pos])
    s = eig.svals
    rmax = math.sqrt(math.log(1.0 / heat.TAIL_EPS) / float(s.min()))
    im_tau = ls.tau.im
    w0sq = np.abs(vac) ** 2
    tail = math.pi / im_tau * float(np.sum(w0sq * np.exp(-rmax * rmax * s) / s)) if n == 0 else 0.0
    lam, wq = contour.points()
    rs, wr = heat._radial_rule(radial_nodes, rmax)
    angs = 2.0 * math.pi * np.arange(heat.ANGULAR_NODES) / heat.ANGULAR_NODES
    dir1 = np.cos(angs) - ls.tau.re / im_tau * np.sin(angs)
    dir2 = np.sin(angs) / im_tau
    w_ang = 2.0 * math.pi / heat.ANGULAR_NODES
    exp_lam = np.exp(-lam)
    total = 0.0 + 0.0j
    for r, wgt in zip(rs, wr):
        rdiag = 1.0 / ((r * r) * s[np.newaxis, :] - lam[:, np.newaxis])
        for poly, word in terms:
            ang_int = w_ang * np.sum(heat._poly_eval(poly, r * dir1, r * dir2))
            if abs(ang_int) < 1e-300:
                continue
            lam_int = np.sum(wq * exp_lam * (eig.apply(word, vac, rdiag) @ np.conj(vac)))
            total += wgt * r * ang_int * lam_int
    total /= im_tau
    return total.real + tail, tail, abs(total.imag)


# name -> (tau, h, trim applied first, window pad; None: the default)
PER_NODE_CASES = {
    "flat": (TAU_I, alg.zero(), None, None),
    "rank1": (TAU_I, scale(0.4, add(U, adjoint(U))), None, None),
    "parity": (TAU_I, scale(0.2, add(U2, adjoint(U2))), None, None),
    "generic-pad1": (ModuliPoint(0.3, 0.8),
                     add(scale(0.3, add(U, adjoint(U))), scale(0.2, add(V, adjoint(V)))),
                     1e-4, 1),
}


def _nodes_per_chunk(res):
    return max(1, heat.CHUNK_BYTES // (16 * res.params["contour_nodes"] * res.params["block"]))


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("case", sorted(PER_NODE_CASES))
def test_heat_coefficient_matches_per_node_loop(case, n):
    """The quadrature over chunks of radial nodes equals the per-node loop
    bit for bit: the same products, summed in the same order."""
    tau, h, trim, pad = PER_NODE_CASES[case]
    ls = laplace_symbol(ConformalData.build(tau, h, pad=16))
    if trim is not None:
        ls = trimmed_symbol_data(ls, trim)
    contour = ContourSpec(nodes=64) if n == 2 else None
    res = heat_coefficient(n, ls, contour=contour, window_pad=pad)
    assert (res.value, res.tail, res.imag_residual) == _per_node_heat(n, ls, contour, pad)
    if case == "rank1" and n == 2:
        # 24 nodes in chunks of 22 (block 23): the last chunk is partial
        assert 1 < _nodes_per_chunk(res) < 24 and 24 % _nodes_per_chunk(res)
    if case == "generic-pad1":
        assert _nodes_per_chunk(res) > 1 and res.params["block"] == 121


def test_heat_coefficient_one_node_per_chunk(ls_default, monkeypatch):
    """A chunk bound below one node's diagonals runs one node per chunk, the
    per-node loop itself."""
    contour = ContourSpec(nodes=64)
    want = heat_coefficient(2, ls_default, contour=contour)
    monkeypatch.setattr(heat, "CHUNK_BYTES", 1)
    got = heat_coefficient(2, ls_default, contour=contour)
    assert (got.value, got.tail, got.imag_residual) == (want.value, want.tail, want.imag_residual)


def test_parametrix_residual_orders(ls_default):
    ls = trimmed_symbol_data(ls_default, 1e-10)
    res = parametrix_residual(ls, lam=-1.0 + 3.0j, window=BasisWindow(6))
    assert res[0] < 1e-10
    assert res[-1] < 1e-8
    assert res[-2] < 1e-8


def test_heat_trace_fit_flat_analytic():
    ms = np.arange(-400, 401)
    eigs = (ms[:, None] ** 2 + ms[None, :] ** 2).ravel()
    fit = heat_trace_fit(eigs)
    assert fit.b0 == pytest.approx(math.pi, abs=0.01)
    assert abs(fit.b2) < 0.05
    # anisotropic: Q = m^2 + 4 n^2 gives slope pi/2
    eigs2 = (ms[:, None] ** 2 + 4.0 * ms[None, :] ** 2).ravel()
    fit2 = heat_trace_fit(eigs2)
    assert fit2.b0 == pytest.approx(math.pi / 2.0, abs=0.01)


def _plain_heat_fit_b0(eigs, t_grid):
    """b0 of the heat-trace fit summed over every eigenvalue, one by one."""
    y = t_grid * np.array([np.sum(np.exp(-t * eigs)) for t in t_grid])
    design = np.stack([np.ones_like(t_grid), t_grid, t_grid ** 2], axis=1)
    return np.linalg.lstsq(design, y, rcond=None)[0][0]


@pytest.mark.parametrize("kind", ["flat lattice", "disk runs", "random"])
def test_heat_trace_fit_matches_plain_sum(kind):
    """The sum over distinct eigenvalues with multiplicities reproduces the
    plain sum over the spectrum, with or without repeated values; the runs
    of a lattice disk fit as their expanded array does."""
    runs = None
    if kind == "flat lattice":
        eigs = lattice_eigenvalues(TAU_I, 150)
        assert np.unique(eigs).size < eigs.size / 4
    elif kind == "disk runs":
        runs = lattice_disk_eigenvalues(ModuliPoint(1.0, 1.0), 1.0e4)
        eigs = np.repeat(runs.values, runs.mult)
    else:
        eigs = np.sort(np.random.default_rng(5).uniform(0.0, 4.0e4, 60_000))
    # the fit's own grid, every point of it admissible
    t_min = math.log(1.0 / heat.FIT_TAIL_TOL) / eigs[-1]
    t_grid = np.geomspace(t_min * 1.02, min(0.2, 60.0 * t_min), 40)
    fit = heat_trace_fit(eigs)
    assert fit.n_points == t_grid.size and fit.t_window == (t_grid[0], t_grid[-1])
    ref = _plain_heat_fit_b0(eigs, t_grid)
    assert abs(fit.b0 - ref) <= 1e-13 * abs(ref)
    shuffled = np.random.default_rng(6).permutation(eigs)
    assert heat_trace_fit(shuffled) == fit
    plain = t_grid * np.array([np.sum(np.exp(-t * eigs)) for t in t_grid])
    trace = heat_trace(gns.runs_of(eigs), t_grid)
    assert np.max(np.abs(trace - plain) / plain) <= 1e-13
    if runs is not None:
        assert heat_trace_fit(runs) == fit
        assert heat_trace(runs, t_grid).tobytes() == trace.tobytes()


@pytest.mark.parametrize("defect", ["multiplicity below 1", "descending"])
def test_heat_trace_fit_refuses_bad_runs(defect):
    """Runs are fitted as given, so runs that are not ascending, or that
    carry a multiplicity below 1, are refused by name."""
    disk = lattice_disk_eigenvalues(TAU_I, 1.0e4)
    if defect == "descending":
        runs, match = gns.Runs(disk.values[::-1], disk.mult[::-1]), "ascending"
    else:
        mult = disk.mult.copy()
        mult[5] = -3
        runs, match = gns.Runs(disk.values, mult), "multiplicities"
    with pytest.raises(HeatError, match=match):
        heat_trace_fit(runs)
    assert heat_trace_fit(disk).b0 == pytest.approx(math.pi, abs=0.01)


def test_heat_trace_fit_rejects_small_window():
    """Below lambda_max of about 96 the grid runs down past t_min and fewer
    than 3 points are admissible: the flat band-6 lattice (lambda_max = 72)
    is refused, band 7 (98) is fitted on 3 points."""
    def flat(band):
        ms = np.arange(-band, band + 1)
        return (ms[:, None] ** 2 + ms[None, :] ** 2).ravel()

    with pytest.raises(HeatError, match="no admissible t-window"):
        heat_trace_fit(flat(6))
    assert heat_trace_fit(flat(7)).n_points == 3


@pytest.mark.parametrize("eigs", [[], [0.0, 0.0], [-2.0, -1.0], [1.0, math.nan]],
                         ids=["empty", "zeros", "negative", "nan"])
def test_heat_trace_fit_rejects_spectrum_without_positive_top(eigs):
    """Refused before t_min = log(1/FIT_TAIL_TOL) / lambda_max is formed: no
    IndexError, no divide-by-zero warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HeatError, match="positive largest eigenvalue"):
            heat_trace_fit(eigs)


def test_heat_rejects_excessive_tail():
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    with pytest.raises(HeatError, match="tail"):
        heat_coefficient(0, laplace_symbol(flat), rmax=1.5)
