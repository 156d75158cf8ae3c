"""Tests for counting functions, Weyl slopes, Dixmier estimates, and the
Connes trace comparison composed from them."""

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus import algebra as alg, spectral
from nctorus.acceptance import connes_claim
from nctorus.algebra import (
    GOLDEN,
    ConformalData,
    DeformationAngle,
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
    dixmier_estimate,
    lattice_counting_data,
    lattice_disk_eigenvalues,
    lattice_eigenvalues,
    resolvent_mu_disk,
    singular_values_descending,
    weyl_constant_closed_form,
    weyl_slope,
    _section_dixmier,
    _trace_n,
)
from nctorus.config import preset
from nctorus.symbols import (
    GradedSymbol,
    OriginRegularization,
    classicalize_resolvent,
    finite_section_of_op,
    residue,
)

TAU_I = ModuliPoint(0.0, 1.0)
U = make_monomial(1, 0)
V = make_monomial(0, 1)
LATTICE_TAUS = [TAU_I, ModuliPoint(0.0, 2.0), ModuliPoint(1.0, 1.0),
                ModuliPoint(0.3, 0.8), ModuliPoint(-0.45, 1.3)]


def _tau_id(tau):
    return f"{tau.re:g}{tau.im:+g}i"


def _expanded(runs):
    """The sequence that runs stand for."""
    return np.repeat(runs.values, runs.mult)


@pytest.fixture(scope="module")
def cd_default():
    h = scale(0.4, add(U, adjoint(U)))
    return ConformalData.build(TAU_I, h, pad=16)


def test_counting_function_small_values():
    """N(lambda), the count of eigenvalues below lambda, at small lambda."""
    cdata = lattice_counting_data(TAU_I, 40)
    assert cdata.count([0.5, 1.5]).tolist() == [1, 5]


def test_counting_function_gauss_circle():
    cdata = lattice_counting_data(TAU_I, 150)
    lam = 1.0e4
    assert lam <= cdata.lambda_max
    assert abs(cdata.count(lam) - math.pi * lam) < 300


def _box_count_points(box, picks):
    """lambda at the picked box values, their nextafter neighbours, at 0,
    at the box maximum and above it."""
    v = box[np.asarray(picks, dtype=np.intp)]
    top = box[-1]
    return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf),
                           [0.0, top, np.nextafter(top, np.inf), 2.0 * top + 1.0]])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), band=st.integers(0, 60),
       re=st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.3]),
                    st.floats(-2.0, 2.0, allow_nan=False)),
       im=st.floats(0.1, 3.0))
def test_row_count_equals_sorted_box_count(data, band, re, im):
    """The row-by-row count equals np.searchsorted on the sorted box, and
    the ceiling reads the quarter of the box maximum bit for bit."""
    tau = ModuliPoint(re, im)
    box = lattice_eigenvalues(tau, band)
    cdata = lattice_counting_data(tau, band)
    picks = data.draw(st.lists(st.integers(0, box.size - 1), min_size=1, max_size=40))
    lams = _box_count_points(box, picks)
    assert cdata.count(lams).tolist() == np.searchsorted(box, lams, side="left").tolist()
    assert cdata.lambda_max == min(0.95 * box_containment_ceiling(tau, band), 0.25 * box[-1])


@pytest.mark.parametrize("tau", LATTICE_TAUS, ids=_tau_id)
def test_row_count_at_every_box_value(tau):
    """The row count at every distinct value of the band-60 box and at both
    of its neighbours."""
    box = lattice_eigenvalues(tau, 60)
    lams = _box_count_points(box, np.flatnonzero(np.diff(box, prepend=-1.0)))
    assert np.array_equal(lattice_counting_data(tau, 60).count(lams),
                          np.searchsorted(box, lams, side="left"))


def test_flat_counting_never_sorts_the_box(monkeypatch):
    """weyl_slope on lattice_counting_data builds no box spectrum, and its
    fit equals the fit to the sorted box under the same ceiling."""
    tau, band = ModuliPoint(1.0, 1.0), 400
    cdata = lattice_counting_data(tau, band)
    sorted_box = CountingData(lattice_eigenvalues(tau, band), band,
                              explicit_ceiling=cdata.lambda_max)

    def refuse(*args, **kwargs):
        raise AssertionError("the box spectrum was built")

    want = weyl_slope(sorted_box)
    for name in ("lattice_eigenvalues", "_half_box"):
        monkeypatch.setattr(spectral, name, refuse)
    monkeypatch.setattr(np, "sort", refuse)
    assert weyl_slope(lattice_counting_data(tau, band)) == want


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


@pytest.mark.parametrize("theta", [GOLDEN.theta, 0.5])
def test_weyl_constant_route_gap_generic_h(theta):
    # h spans Z^2 on a non-rectangular tau, at an irrational and a rational
    # angle: the inverse of the section of k k against t(e^{-h})
    angle = DeformationAngle(theta)
    u, v = make_monomial(1, 0, 1.0, angle), make_monomial(0, 1, 1.0, angle)
    h = add(scale(0.3, add(u, adjoint(u))), scale(0.2, add(v, adjoint(v))))
    wc = weyl_constant_closed_form(ConformalData.build(ModuliPoint(0.3, 0.8), h))
    assert wc.route_gap <= 1e-13


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
    mu = np.sort(_expanded(resolvent_mu_disk(1.0, 1.0e6)) ** 1.5)[::-1]
    est = dixmier_estimate(DixmierData(mu))
    assert est.vanishing
    assert est.drift > est.value or est.value < 0.05


def test_dixmier_linearity_on_block_spectra():
    a = _expanded(resolvent_mu_disk(1.0, 1.0e5))
    b = 0.5 * a
    ea = dixmier_estimate(DixmierData(a))
    eb = dixmier_estimate(DixmierData(b))
    merged = np.sort(np.concatenate([a, b]))[::-1]
    em = dixmier_estimate(DixmierData(merged))
    tol = 3 * (ea.drift + eb.drift + em.drift) * abs(em.value) + 0.02
    assert abs(em.value - (ea.value + eb.value)) < max(tol, 0.05)


def test_dixmier_depends_only_on_sorted_sequence():
    mu = _expanded(resolvent_mu_disk(1.0, 1.0e4))
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


@pytest.mark.filterwarnings("ignore::nctorus.symbols.OriginRegularization")
@pytest.mark.parametrize("kind", ["rank1 N16", "generic N5"])
def test_singular_values_of_dense_equal_sparse(kind, cd_default):
    """The singular values of a section read dense are those of its sparse
    matrix bit for bit: the rank-1 k_weighted section (33 blocks) and a
    generic-h section (one block)."""
    if kind == "rank1 N16":
        cd, band = cd_default, 16
    else:
        h = add(scale(0.3, add(U, adjoint(U))), scale(0.2, add(V, adjoint(V))))
        cd, band = ConformalData.build(ModuliPoint(0.3, 0.8), h, pad=16), 5
    p = GradedSymbol(GOLDEN, -2, 1, {-2: {0: cd.k_inv2.trimmed(1e-13)}})
    S = finite_section_of_op(p, BasisWindow(band)).matrix
    sv = singular_values_descending(S)
    assert singular_values_descending(S.toarray()).tobytes() == sv.tobytes()
    assert sv.size == (2 * band + 1) ** 2


@pytest.mark.parametrize("tau", [ModuliPoint(0.0, 2.0), ModuliPoint(1.0, 1.0),
                                 ModuliPoint(0.3, 0.8)])
def test_lattice_disk_matches_brute_force_count(tau):
    q_max = 1.0e4
    ms = np.arange(-400, 401)
    q = quadratic_form_values(tau, ms[:, None], ms[None, :])
    count = int(np.count_nonzero(q <= q_max))
    assert int(lattice_disk_eigenvalues(tau, q_max).mult.sum()) == count
    assert int(resolvent_mu_disk(1.0, q_max, tau).mult.sum()) == count


@pytest.mark.parametrize("tau", LATTICE_TAUS, ids=_tau_id)
@pytest.mark.parametrize("q_max", [None, 0.0, 777.7])
def test_lattice_half_box_equals_sorted_full_box(tau, q_max):
    """The half-box build is the sorted full box byte for byte: the box
    itself (q_max None), or its part Q <= q_max, the disk, from a box that
    contains the disk."""
    band = 37 if q_max is None else 60
    ms = np.arange(-band, band + 1)
    q = quadratic_form_values(tau, ms[:, None], ms[None, :]).ravel()
    if q_max is None:
        assert lattice_eigenvalues(tau, band).tobytes() == np.sort(q).tobytes()
    else:
        assert box_containment_ceiling(tau, band) > q_max
        ref = np.sort(q[q <= q_max])
        assert _expanded(lattice_disk_eigenvalues(tau, q_max)).tobytes() == ref.tobytes()


def test_lattice_eigenvalues_edge_cases():
    assert lattice_eigenvalues(TAU_I, 0).tolist() == [0.0]
    # a negative q_max filters the origin too
    assert _expanded(lattice_disk_eigenvalues(TAU_I, -1e-3)).size == 0
    assert _expanded(lattice_disk_eigenvalues(TAU_I, 0.0)).tolist() == [0.0]


@pytest.mark.parametrize("band", [-1, -3])
def test_lattice_eigenvalues_rejects_negative_band(band):
    with pytest.raises(SpectralError, match="band"):
        lattice_eigenvalues(TAU_I, band)
    with pytest.raises(SpectralError, match="band"):
        lattice_counting_data(TAU_I, band)


@pytest.mark.parametrize("name", ["flat", "flat-tau2i", "flat-tau1plusi"])
def test_disk_equals_box_at_containment_ceiling(name):
    """The flat heat fit reads the disk at the containment ceiling of the
    preset's box: it is the box's values Q <= that ceiling, byte for byte."""
    cfg = preset(name)
    tau, band = cfg.moduli, cfg.flat_band
    ceiling = box_containment_ceiling(tau, band)
    box = lattice_eigenvalues(tau, band)
    disk = _expanded(lattice_disk_eigenvalues(tau, ceiling))
    assert disk.tobytes() == box[box <= ceiling].tobytes()


@pytest.mark.parametrize("tau", LATTICE_TAUS, ids=_tau_id)
@pytest.mark.parametrize("c0", [1e-3, 1.0, 37.5])
def test_resolvent_mu_disk_equals_sorted_reference(tau, c0):
    """np.repeat of the disk runs is the sorted full disk byte for byte: the
    origin a run of 1 at the front, then distinct values."""
    q_max, band = 5.0e4, 400
    assert box_containment_ceiling(tau, band) > q_max
    ms = np.arange(-band, band + 1)
    q = quadratic_form_values(tau, ms[:, None], ms[None, :]).ravel()
    q = np.sort(q[q <= q_max])
    disk = lattice_disk_eigenvalues(tau, q_max)
    assert _expanded(disk).tobytes() == q.tobytes()
    assert (disk.values[0], disk.mult[0]) == (0.0, 1)
    assert np.all(disk.values[:-1] < disk.values[1:])
    ref = np.sort(1.0 / (c0 + q))[::-1]
    assert _expanded(resolvent_mu_disk(c0, q_max, tau)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("c0", [0.0, -1.0, math.nan])
def test_resolvent_mu_disk_rejects_nonpositive_shift(c0):
    with pytest.raises(SpectralError, match="positive"):
        resolvent_mu_disk(c0, 100.0)


@pytest.mark.parametrize("q_max", [math.nan, math.inf, -math.inf])
def test_disk_rejects_nonfinite_q_max(q_max):
    with pytest.raises(SpectralError, match="q_max"):
        lattice_disk_eigenvalues(TAU_I, q_max)
    with pytest.raises(SpectralError, match="q_max"):
        resolvent_mu_disk(1.0, q_max)


@pytest.mark.parametrize("q_max", [-1e-3, -50.0])
def test_disk_negative_q_max_is_empty(q_max):
    """A negative q_max filters the origin too."""
    ref = np.empty(0)
    for runs in (lattice_disk_eigenvalues(TAU_I, q_max), resolvent_mu_disk(1.0, q_max)):
        assert int(runs.mult.sum()) == 0
        assert _expanded(runs).tobytes() == ref.tobytes()
    origin = lattice_disk_eigenvalues(TAU_I, 0.0)
    assert (origin.values.tolist(), origin.mult.tolist()) == ([0.0], [1])


def _cumsum_estimate(mu):
    """(value, drift, cesaro) of the Dixmier estimate read off np.cumsum of
    the expanded sequence mu, the reference for the runs reads."""
    sums, M = np.cumsum(mu), mu.size

    def log_slope(lo, hi):
        ns = np.unique(np.geomspace(lo, hi, 48).astype(int))
        xs = np.log(ns.astype(float))
        design = np.stack([np.ones_like(xs), xs], axis=1)
        return float(np.linalg.lstsq(design, sums[ns - 1], rcond=None)[0][1])

    value = log_slope(max(2, int(math.sqrt(M))), M)
    s1, s2 = log_slope(max(2, M // 4), M // 2), log_slope(M // 2, M)
    ns = np.unique(np.geomspace(math.e, M, 512))
    tr = np.interp(ns, np.arange(1, M + 1, dtype=float), sums)
    u = np.log(ns)
    return value, abs(s2 - s1) / abs(s2), float(np.trapezoid(tr / u, u) / (u[-1] - u[0]))


@pytest.mark.parametrize("M", [1000, 4097, 123457])
def test_dixmier_array_equals_cumsum_reference(M):
    """An array is runs of multiplicity 1: its partial sums and estimate are
    bit for bit those of np.cumsum."""
    rng = np.random.default_rng(M)
    for mu in (1.0 / np.arange(1.0, M + 1.0),
               np.sort(rng.random(M) / np.arange(1.0, M + 1.0))[::-1]):
        dd = DixmierData(mu)
        assert dd.partial_sums.tobytes() == np.cumsum(mu).tobytes()
        est = dixmier_estimate(dd)
        assert (est.value, est.drift, est.cesaro) == _cumsum_estimate(mu)
        assert est.n_values == M


@pytest.mark.parametrize("tau", [TAU_I, ModuliPoint(0.3, 0.8)], ids=_tau_id)
def test_disk_partial_sums_no_farther_from_fsum(tau):
    """Trace_N read off the runs, inside runs and at their ends, is no
    farther from the correctly rounded sum than the cumsum of the expanded
    disk is; the estimates agree to rounding."""
    runs = resolvent_mu_disk(1.0, 1.0e5, tau)
    dd = DixmierData(runs)
    full = _expanded(runs)
    assert int(dd.counts[-1]) == full.size == int(runs.mult.sum())
    reads = np.unique(np.geomspace(2, full.size, 10).astype(int))
    exact = np.array([math.fsum(full[:n]) for n in reads])
    err_runs = np.abs(_trace_n(dd, reads) - exact)
    err_cumsum = np.abs(np.cumsum(full)[reads - 1] - exact)
    assert np.max(err_runs) <= np.max(err_cumsum)
    assert np.all(err_runs <= 1e-13 * exact)
    est, ref = dixmier_estimate(dd), _cumsum_estimate(full)
    assert est.n_values == full.size
    assert est.value == pytest.approx(ref[0], rel=1e-11)
    assert est.cesaro == pytest.approx(ref[2], rel=1e-12)


def test_dixmier_data_checks_runs():
    disk = resolvent_mu_disk(1.0, 1.0e3)
    with pytest.raises(SpectralError, match="multiplicities"):
        DixmierData(dataclasses.replace(disk, mult=0 * disk.mult))
    with pytest.raises(SpectralError, match="multiplicities"):
        DixmierData(dataclasses.replace(disk, mult=disk.mult[1:]))
    with pytest.raises(SpectralError, match="non-increasing"):
        DixmierData(dataclasses.replace(disk, values=disk.values[::-1]))


def test_power_claim_equals_sorted_reference():
    """connes-order3 maps the disk runs without a sort; its estimate matches
    the sorted expanded sequence to rounding."""
    cfg = preset("connes-order3")
    report, est = connes_claim(cfg)
    q = _expanded(lattice_disk_eigenvalues(cfg.moduli, 1.0e6))
    ref = _cumsum_estimate(np.sort((1.0 + q) ** (cfg.symbol[1] / 2.0))[::-1])
    assert report["vanishing"] and est.n_values == q.size
    assert est.value == pytest.approx(ref[0], rel=1e-10)
    assert est.drift == pytest.approx(ref[1], rel=1e-8)
    assert est.cesaro == pytest.approx(ref[2], rel=1e-12)


def test_anchor_dixmier_never_expands_the_disk():
    """The anchor's Dixmier estimate peaks below 40 MB of traced memory; the
    expanded disk of 3,141,549 values and its partial sums take 50 MB."""
    tracemalloc.start()
    try:
        dixmier_estimate(DixmierData(resolvent_mu_disk(1.0, 1.0e6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("M", [1000, 1001, 4097, 123457])
def test_dixmier_estimate_equals_interp_reference(M):
    """The Cesaro mean reads the partial sums at non-integer points exactly as
    np.interp on the nodes 1..M does."""
    rng = np.random.default_rng(M)
    dd = DixmierData(np.sort(rng.random(M) / np.arange(1.0, M + 1.0))[::-1])
    est = dixmier_estimate(dd)
    ns = np.unique(np.geomspace(math.e, M, 512))
    tr = np.interp(ns, np.arange(1, M + 1, dtype=float), dd.partial_sums)
    u = np.log(ns)
    cesaro = float(np.trapezoid(tr / u, u) / (u[-1] - u[0]))
    assert est == dataclasses.replace(est, cesaro=cesaro)


def test_dixmier_data_leaves_mu_unchanged():
    mu = 1.0 / np.arange(1.0, 2001.0)
    assert DixmierData(mu).mu is mu
    rounded = np.concatenate([mu, [-1e-16, -5e-16]])
    before = rounded.copy()
    dd = DixmierData(rounded)
    assert rounded.tobytes() == before.tobytes()
    assert dd.mu.tobytes() == np.clip(before, 0.0, None).tobytes()
    assert dd.partial_sums.tobytes() == np.cumsum(np.clip(before, 0.0, None)).tobytes()


def test_counting_data_sorts_only_unsorted_input():
    eigs = lattice_eigenvalues(ModuliPoint(0.3, 0.8), 30)
    eigs[0] = -1e-9
    shuffled = np.random.default_rng(3).permutation(eigs)
    before = shuffled.copy()
    ref = np.clip(np.sort(eigs), 0.0, None)
    for spec in (eigs, shuffled):
        cd = CountingData(spec, 30)
        assert cd.eigenvalues.tobytes() == ref.tobytes()
        assert cd.eigenvalues is not spec
    assert eigs[0] == -1e-9
    assert shuffled.tobytes() == before.tobytes()


def _section_connes(p, n):
    """connes_claim's section route by hand: the residue of p and the
    Dixmier estimate of its section at bandwidth n."""
    mat = finite_section_of_op(p, BasisWindow(n)).matrix
    return residue(p).real, _section_dixmier(singular_values_descending(mat))


def test_connes_check_flat_resolvent():
    """The section of the three-layer expansion, its origin column dropped."""
    p = classicalize_resolvent(1.0, TAU_I, depth=3, angle=GOLDEN)
    with pytest.warns(OriginRegularization, match="1 column"):
        res, est = _section_connes(p, 48)
    assert res == pytest.approx(2 * math.pi, abs=1e-10)
    assert 0.425 <= est.value / res <= 0.575


def test_connes_check_weighted_symbol(cd_default):
    kinv2 = cd_default.k_inv2.trimmed(1e-13)
    p = GradedSymbol(GOLDEN, -2, 1, {-2: {0: kinv2}})
    with pytest.warns(Warning):
        res, est = _section_connes(p, 24)
    assert res == pytest.approx(2 * math.pi * alg.trace_t(kinv2).real, abs=1e-10)
    assert 0.40 <= est.value / res <= 0.60  # tighter band checked at N=48 in acceptance


def test_connes_check_zero_leading_layer():
    # order -2 declared but the -2 layer is empty: the residue vanishes exactly
    # and the trace-class decay drives the Dixmier fit toward zero, with the
    # dyadic drift dominating the small window available at this bandwidth
    p = GradedSymbol(GOLDEN, -2, 2, {-3: {0: alg.unit()}})
    assert residue(p) == 0.0
    with pytest.warns(Warning):
        _, est = _section_connes(p, 32)
    assert est.value < 0.35
    assert est.drift > 0.2


def test_k_weighted_claim_equals_hand_composed_route():
    """connes_claim's k_weighted branch is the symbol, its section and its
    singular values, with the warnings of the whole route counted."""
    cfg = dataclasses.replace(preset("connes-k-weighted"), bandwidth=16)
    report, est = connes_claim(cfg)
    kinv2 = cfg.conformal_data().k_inv2.trimmed(1e-13)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res, ref = _section_connes(GradedSymbol(cfg.angle, -2, 1, {-2: {0: kinv2}}), 16)
    assert est == ref
    assert (report["residue"], report["dixmier"], report["drift"]) == (res, ref.value, ref.drift)
    assert report["ratio"] == ref.value / res
    assert report["warnings"] == dict(Counter(c.category.__name__ for c in caught))
    assert report["warnings"] == {"OriginRegularization": 1}


def test_perturbed_resolvent_corollary():
    cfg = dataclasses.replace(preset("connes-perturbed-resolvent"), bandwidth=24)
    report, _ = connes_claim(cfg)
    assert report["ratio"] == pytest.approx(1.0, abs=0.1)
    assert report["passed"]
