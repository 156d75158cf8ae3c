"""Tests for counting functions, Weyl slopes, Dixmier estimates and the
residue comparison."""

import math

import numpy as np
import pytest

from nctorus import algebra as alg
from nctorus.algebra import (
    GOLDEN,
    ConformalData,
    ModuliPoint,
    add,
    adjoint,
    make_monomial,
    scale,
)
from nctorus.gns import (
    BasisWindow,
    hermitian_spectrum,
    perturbed_laplacian_matrix,
    quadratic_form_values,
)
from nctorus.spectral import (
    CountingData,
    DixmierData,
    SpectralError,
    adaptive_counting_ceiling,
    box_containment_ceiling,
    connes_trace_check,
    counting_function,
    dixmier_estimate,
    lattice_counting_data,
    lattice_disk_eigenvalues,
    lattice_eigenvalues,
    perturbed_resolvent_check,
    resolvent_mu_disk,
    singular_values_descending,
    weyl_constant_closed_form,
    weyl_slope,
)
from nctorus.symbols import GradedSymbol, classicalize_resolvent

TAU_I = ModuliPoint(0.0, 1.0)
U = make_monomial(1, 0)


@pytest.fixture(scope="module")
def cd_default():
    h = scale(0.4, add(U, adjoint(U)))
    return ConformalData.build(TAU_I, h, pad=16)


def test_counting_function_small_values():
    cdata = lattice_counting_data(TAU_I, 40)
    assert counting_function(cdata, 0.5) == 1
    assert counting_function(cdata, 1.5) == 5
    with pytest.raises(SpectralError):
        counting_function(cdata, cdata.lambda_max * 2.0)


def test_counting_function_gauss_circle():
    cdata = lattice_counting_data(TAU_I, 150)
    lam = 1.0e4
    assert abs(counting_function(cdata, lam) - math.pi * lam) < 300


def test_weyl_slope_flat_cases():
    for tau, target in [(TAU_I, math.pi), (ModuliPoint(0.0, 2.0), math.pi / 2),
                        (ModuliPoint(1.0, 1.0), math.pi)]:
        cdata = lattice_counting_data(tau, 300)
        fit = weyl_slope(cdata)
        assert abs(fit.slope - target) / target < 0.03
        assert fit.stderr < 0.05 * target


def test_weyl_slope_matches_count_within_stderr():
    cdata = lattice_counting_data(TAU_I, 300)
    fit = weyl_slope(cdata)
    # lattice-count oracle: area slope pi
    assert abs(fit.slope - math.pi) < max(3 * fit.stderr, 2e-3)


def test_explicit_ceiling_capped():
    eigs = lattice_eigenvalues(TAU_I, 50)
    with pytest.raises(SpectralError):
        CountingData(eigs, 50, explicit_ceiling=float(eigs[-1]))


def test_weyl_constant_closed_form(cd_default):
    from scipy.special import iv

    wc = weyl_constant_closed_form(cd_default)
    assert wc.route_gap < 1e-8
    assert wc.trace_kinv2 == pytest.approx(float(iv(0, 0.8)), abs=1e-8)
    assert wc.slope == pytest.approx(math.pi * float(iv(0, 0.8)), rel=1e-8)
    assert wc.volume == pytest.approx(4 * math.pi ** 2 * float(iv(0, 0.8)), rel=1e-8)
    flat = ConformalData.build(TAU_I, alg.zero(), pad=2)
    wf = weyl_constant_closed_form(flat)
    assert wf.slope == pytest.approx(math.pi, rel=1e-10)
    assert wf.volume == pytest.approx(4 * math.pi ** 2, rel=1e-10)
    flat2 = ConformalData.build(ModuliPoint(0.0, 2.0), alg.zero(), pad=2)
    assert weyl_constant_closed_form(flat2).slope == pytest.approx(math.pi / 2, rel=1e-10)


def test_perturbed_weyl_slope_adaptive(cd_default):
    wc = weyl_constant_closed_form(cd_default)
    spec = hermitian_spectrum(
        perturbed_laplacian_matrix(cd_default, BasisWindow(24))
    ).eigenvalues
    base = CountingData(spec, 24)
    ceiling = adaptive_counting_ceiling(base)
    assert ceiling <= base.lambda_max
    cdata = CountingData(spec, 24, explicit_ceiling=ceiling, note="adaptive")
    fit = weyl_slope(cdata)
    assert abs(fit.slope - wc.slope) / wc.slope < 0.05


def test_dixmier_harmonic():
    n = np.arange(1, 100001)
    est = dixmier_estimate(DixmierData(1.0 / n))
    assert est.value == pytest.approx(1.0, abs=1e-3)
    assert est.drift < 1e-4
    assert not est.vanishing


def test_dixmier_requires_data():
    with pytest.raises(SpectralError):
        dixmier_estimate(DixmierData(1.0 / np.arange(1, 100)))


def test_dixmier_monotone_validation():
    with pytest.raises(SpectralError):
        DixmierData(np.array([1.0, 2.0, 0.5]))


def test_dixmier_anchor_resolvent_disk():
    mu = resolvent_mu_disk(1.0, 1.0e6)
    est = dixmier_estimate(DixmierData(mu))
    assert abs(est.value - math.pi) / math.pi < 0.05
    assert est.drift < 0.02


def test_dixmier_trace_class_vanishes():
    mu = np.sort(resolvent_mu_disk(1.0, 1.0e6) ** 1.5)[::-1]
    est = dixmier_estimate(DixmierData(mu))
    assert est.vanishing
    assert est.drift > est.value or est.value < 0.05


def test_dixmier_linearity_on_block_spectra():
    a = resolvent_mu_disk(1.0, 1.0e5)
    b = 0.5 * a
    ea = dixmier_estimate(DixmierData(a))
    eb = dixmier_estimate(DixmierData(b))
    merged = np.sort(np.concatenate([a, b]))[::-1]
    em = dixmier_estimate(DixmierData(merged))
    tol = 3 * (ea.drift + eb.drift + em.drift) * abs(em.value) + 0.02
    assert abs(em.value - (ea.value + eb.value)) < max(tol, 0.05)


def test_dixmier_depends_only_on_sorted_sequence():
    mu = resolvent_mu_disk(1.0, 1.0e4)
    rng = np.random.default_rng(0)
    shuffled = mu.copy()
    rng.shuffle(shuffled)
    resorted = np.sort(shuffled)[::-1]
    e1 = dixmier_estimate(DixmierData(mu))
    e2 = dixmier_estimate(DixmierData(resorted))
    assert e1 == e2


def test_singular_values_diagonal_fast_path():
    d = np.diag([3.0, -1.0, 2.0]).astype(complex)
    sv = singular_values_descending(d)
    assert np.allclose(sv, [3.0, 2.0, 1.0])
    rng = np.random.default_rng(1)
    m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    assert np.allclose(singular_values_descending(m),
                       np.linalg.svd(m, compute_uv=False), atol=1e-10)


@pytest.mark.filterwarnings("ignore::nctorus.symbols.OriginRegularization")
def test_singular_values_block_path_matches_svd(block_case):
    from nctorus.symbols import finite_section_of_op

    cd, _ = block_case
    p = GradedSymbol(GOLDEN, -2, 1, {-2: {0: cd.k_inv2.trimmed(1e-13)}})
    mat = finite_section_of_op(p, BasisWindow(8)).entries
    sv = singular_values_descending(mat)
    ref = np.linalg.svd(mat, compute_uv=False)
    # the Gram route resolves squares to rounding: a zero singular value
    # reads as sqrt(eps) |mat|, on the block path as on the dense one
    assert np.max(np.abs(sv ** 2 - ref ** 2)) < 1e-10 * ref[0] ** 2


@pytest.mark.parametrize("tau", [ModuliPoint(0.0, 2.0), ModuliPoint(1.0, 1.0),
                                 ModuliPoint(0.3, 0.8)])
def test_lattice_disk_matches_brute_force_count(tau):
    q_max = 1.0e4
    ms = np.arange(-400, 401)
    q = quadratic_form_values(tau, ms[:, None], ms[None, :])
    count = int(np.count_nonzero(q <= q_max))
    assert lattice_disk_eigenvalues(tau, q_max).size == count
    assert resolvent_mu_disk(1.0, q_max, tau).size == count


def test_connes_check_flat_resolvent():
    p = classicalize_resolvent(1.0, TAU_I, depth=3, angle=GOLDEN)
    rep = connes_trace_check(p, BasisWindow(48))
    assert rep.residue == pytest.approx(2 * math.pi, abs=1e-10)
    assert 0.425 <= rep.ratio <= 0.575


def test_connes_check_weighted_symbol(cd_default):
    kinv2 = cd_default.k_inv2.trimmed(1e-13)
    p = GradedSymbol(GOLDEN, -2, 1, {-2: {0: kinv2}})
    with pytest.warns(Warning):
        rep = connes_trace_check(p, BasisWindow(24))
    assert rep.residue == pytest.approx(
        2 * math.pi * alg.trace_t(kinv2).real, abs=1e-10
    )
    assert 0.40 <= rep.ratio <= 0.60  # tighter band checked at N=48 in acceptance


def test_connes_check_requires_order_minus_two():
    p = classicalize_resolvent(1.0, TAU_I, depth=1, angle=GOLDEN)
    shifted = GradedSymbol(GOLDEN, -3, 1, {-3: {0: alg.unit()}})
    with pytest.raises(SpectralError):
        connes_trace_check(shifted, BasisWindow(8))


def test_connes_check_zero_leading_layer():
    # order -2 declared but the -2 layer is empty: the residue vanishes exactly
    # and the trace-class decay drives the Dixmier fit toward zero, with the
    # dyadic drift dominating the small window available at this bandwidth
    p = GradedSymbol(GOLDEN, -2, 2, {-3: {0: alg.unit()}})
    from nctorus.symbols import residue

    assert residue(p) == 0.0
    with pytest.warns(Warning):
        rep = connes_trace_check(p, BasisWindow(32))
    assert rep.dixmier.value < 0.35
    assert rep.dixmier.drift > 0.2


def test_perturbed_resolvent_corollary(cd_default):
    spec = hermitian_spectrum(
        perturbed_laplacian_matrix(cd_default, BasisWindow(24))
    ).eigenvalues
    rep = perturbed_resolvent_check(spec, cd_default)
    assert rep["ratio"] == pytest.approx(1.0, abs=0.1)
