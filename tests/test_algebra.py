"""Tests for the twisted Fourier algebra core."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus import algebra as alg
from nctorus.algebra import (
    GOLDEN,
    AlgebraError,
    ConformalData,
    DeformationAngle,
    ModuliPoint,
    NcElement,
    NonConvergence,
    add,
    adjoint,
    delta,
    exp_selfadjoint,
    inner_product,
    make_monomial,
    mul,
    phi,
    scale,
    trace_t,
    unit,
)

THETA = GOLDEN.theta
OMEGA = cmath.exp(2j * math.pi * THETA)

U = make_monomial(1, 0)
V = make_monomial(0, 1)
ONE = unit()


def word_product_oracle(*factors, theta=THETA):
    """Independent product oracle: rewrite generator words letter by letter.

    Each factor is a pair (m, n) standing for U^m V^n.  The word is flattened
    to single-exponent letters and V-letters are bubbled right past U-letters
    using V^s U^t -> e^{2*pi*i*theta*s*t} U^t V^s, one swap at a time.
    """
    letters = []
    for m, n in factors:
        letters += [("U", int(math.copysign(1, m)))] * abs(m)
        letters += [("V", int(math.copysign(1, n)))] * abs(n)
    phase = 1.0 + 0.0j
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (g1, s), (g2, t) = letters[i], letters[i + 1]
            if g1 == "V" and g2 == "U":
                phase *= cmath.exp(2j * math.pi * theta * s * t)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    m = sum(s for g, s in letters if g == "U")
    n = sum(s for g, s in letters if g == "V")
    return (m, n), phase


def test_make_monomial_identity_and_generators():
    assert ONE.coeffs == {(0, 0): 1.0 + 0.0j}
    assert U.coeffs == {(1, 0): 1.0 + 0.0j}
    assert V.coeffs == {(0, 1): 1.0 + 0.0j}
    assert make_monomial(3, -2).bandwidth == 3


def test_mul_basic_relation():
    uv = mul(U, V)
    assert uv.coeff(1, 1) == pytest.approx(1.0)
    vu = mul(V, U)
    assert vu.coeff(1, 1) == pytest.approx(OMEGA)
    assert vu.bandwidth == 2


def test_mul_against_word_oracle():
    # U^2 V times U V^3 and a handful of other generator words
    cases = [((2, 1), (1, 3)), ((1, 2), (2, 1)), ((-1, 2), (3, -1)), ((0, 2), (2, 0))]
    for f1, f2 in cases:
        a = mul(make_monomial(*f1), make_monomial(*f2))
        (m, n), phase = word_product_oracle(f1, f2)
        assert a.coeff(m, n) == pytest.approx(phase, abs=1e-13)
        assert len(a.coeffs) == 1
    # random elements against the naive twisted convolution
    rng = np.random.default_rng(13)
    a = alg.random_element(rng, 3)
    b = alg.random_element(rng, 3)
    prod = mul(a, b)
    for m in range(-2, 3):
        for n in range(-2, 3):
            direct = sum(
                ca * b.coeff(m - p, n - q) * cmath.exp(2j * math.pi * THETA * q * (m - p))
                for (p, q), ca in a.coeffs.items()
            )
            assert prod.coeff(m, n) == pytest.approx(direct, abs=1e-12)


def pairwise_product_oracle(a, b):
    """{(m, n): (coefficient, l1 mass of its terms)} of a b, one coefficient
    pair at a time through word_product_oracle."""
    out = {}
    for (m, n), ca in a.coeffs.items():
        for (p, q), cb in b.coeffs.items():
            key, phase = word_product_oracle((m, n), (p, q), theta=a.theta)
            c, mass = out.get(key, (0.0, 0.0))
            out[key] = (c + ca * cb * phase, mass + abs(ca * cb))
    return out


def assert_matches_pairwise_oracle(a, b):
    prod = mul(a, b)
    ref = pairwise_product_oracle(a, b)
    assert prod.bandwidth == a.bandwidth + b.bandwidth
    for key, (c, mass) in ref.items():
        assert abs(prod.coeff(*key) - c) <= 1e-12 * mass
        if key not in prod.coeffs:
            assert abs(c) < 1e-15 * max(mass, 1.0)
    for key, c in prod.coeffs.items():
        if key not in ref:
            assert abs(c) < 1e-15


MUL_THETAS = (alg.GOLDEN_RATIO_THETA, 1.0 / 3.0, 0.5)


@st.composite
def boxed_elements(draw, angle):
    """Elements whose support lies in a random sub-box of the bandwidth box,
    so that two draws may have disjoint support boxes; the empty element
    and bandwidth 0 occur too."""
    band = draw(st.integers(0, 3))
    m0, m1 = sorted(draw(st.lists(st.integers(-band, band), min_size=2, max_size=2)))
    n0, n1 = sorted(draw(st.lists(st.integers(-band, band), min_size=2, max_size=2)))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(m0, m1), st.integers(n0, n1)),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        max_size=12,
    ))
    return NcElement(angle, band, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), theta=st.sampled_from(MUL_THETAS))
def test_mul_matches_pairwise_oracle(data, theta):
    angle = DeformationAngle(theta)
    assert_matches_pairwise_oracle(data.draw(boxed_elements(angle)),
                                   data.draw(boxed_elements(angle)))


@pytest.mark.parametrize("theta", MUL_THETAS)
def test_mul_edge_cases_match_pairwise_oracle(theta):
    angle = DeformationAngle(theta)
    rng = np.random.default_rng(31)

    def elem(band, terms, shift=(0, 0)):
        a = alg.random_element(rng, band, terms, angle=angle)
        return NcElement(angle, band + max(map(abs, shift)), {
            (m + shift[0], n + shift[1]): c for (m, n), c in a.coeffs.items()})

    empty = NcElement(angle, 2, {})
    cases = [
        (empty, elem(2, 5)), (elem(2, 5), empty), (empty, empty),
        (elem(0, 1), elem(0, 1)),                    # bandwidth 0
        (elem(1, 2), elem(3, 20)),                   # len(a) < len(b)
        (elem(3, 20), elem(1, 2)),                   # len(a) > len(b)
        (elem(1, 4, (3, -3)), elem(1, 6, (-3, 3))),  # disjoint support boxes
        (elem(2, 9, (0, 4)), elem(1, 3, (4, 0))),
    ]
    for a, b in cases:
        assert_matches_pairwise_oracle(a, b)


def assert_coeffs(elem, want, tol=0.0):
    """elem's coefficients equal the dict want, entry by entry, within tol."""
    got = elem.coeffs
    assert all(max(abs(m), abs(n)) <= elem.bandwidth for m, n in got)
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= tol, key


@settings(max_examples=80, deadline=None)
@given(data=st.data(), theta=st.sampled_from(MUL_THETAS),
       c=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       cut=st.floats(0.0, 2.0))
def test_box_operations_match_coefficient_formulas(data, theta, c, cut):
    """Every operation on the coefficient box against its formula, written
    one coefficient at a time over the .coeffs view."""
    angle = DeformationAngle(theta)
    a, b = data.draw(boxed_elements(angle)), data.draw(boxed_elements(angle))
    ca, cb = a.coeffs, b.coeffs
    twist = lambda k: cmath.exp(2j * math.pi * theta * k)
    reach = lambda key: max(abs(key[0]), abs(key[1]))
    assert_coeffs(add(a, b), {k: ca.get(k, 0.0) + cb.get(k, 0.0) for k in set(ca) | set(cb)})
    assert add(a, b).bandwidth == max(a.bandwidth, b.bandwidth)
    assert_coeffs(scale(c, a), {k: c * v for k, v in ca.items()}, 1e-14)
    assert_coeffs(adjoint(a), {(-m, -n): v.conjugate() * twist(m * n)
                               for (m, n), v in ca.items()}, 1e-14)
    assert_coeffs(delta(1, a), {(m, n): m * v for (m, n), v in ca.items()})
    assert_coeffs(delta(2, a), {(m, n): n * v for (m, n), v in ca.items()})
    assert inner_product(a, b) == pytest.approx(
        sum(v * cb.get(k, 0.0).conjugate() for k, v in ca.items()), abs=1e-13)
    assert alg.trace_of_product(a, b) == pytest.approx(
        sum(v * cb.get((-m, -n), 0.0) * twist(-m * n) for (m, n), v in ca.items()), abs=1e-13)
    trim = a.trimmed(cut)
    assert_coeffs(trim, {k: v for k, v in ca.items() if abs(v) > cut})
    assert trim.bandwidth == max((reach(k) for k, v in ca.items() if abs(v) > cut), default=0)
    for m in range(-a.bandwidth - 1, a.bandwidth + 2):
        for n in range(-a.bandwidth - 1, a.bandwidth + 2):
            assert a.coeff(m, n) == ca.get((m, n), 0.0)
    assert a.l1_norm() == pytest.approx(sum(abs(v) for v in ca.values()), abs=1e-13)
    assert a.support_bandwidth() == max(map(reach, ca), default=0)


def test_mul_angle_mismatch_raises():
    other = make_monomial(1, 0, 1.0, DeformationAngle(0.3))
    with pytest.raises(AlgebraError):
        mul(U, other)


def test_adjoint_involution_and_oracle():
    assert adjoint(ONE).isclose(ONE)
    # adjoint(UV) = conj via V^{-1} U^{-1} word rewriting
    uv = mul(U, V)
    (m, n), phase = word_product_oracle((0, -1), (-1, 0))
    a = adjoint(uv)
    assert (m, n) == (-1, -1)
    assert a.coeff(-1, -1) == pytest.approx(phase, abs=1e-13)
    # conjugate linearity with mn = 0
    iu = make_monomial(1, 0, 1j)
    assert adjoint(iu).coeff(-1, 0) == pytest.approx(-1j)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = alg.random_element(rng, 4)
        assert adjoint(adjoint(a)).isclose(a, 1e-14)


def test_trace_examples():
    assert trace_t(ONE) == 1.0
    assert trace_t(make_monomial(3, -2)) == 0.0


def test_trace_cyclic_against_coefficient_sum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = alg.random_element(rng, 8)
        b = alg.random_element(rng, 8)
        lhs = trace_t(mul(a, b))
        rhs = trace_t(mul(b, a))
        direct = sum(
            ca * b.coeff(-m, -n) * cmath.exp(-2j * math.pi * THETA * m * n)
            for (m, n), ca in a.coeffs.items()
        )
        assert abs(lhs - rhs) < 1e-12
        assert lhs == pytest.approx(direct, abs=1e-12)


def test_delta_examples_and_leibniz():
    assert delta(1, U).isclose(U)
    assert delta(2, ONE).coeffs == {}
    lhs = delta(1, mul(U, V))
    rhs = add(mul(delta(1, U), V), mul(U, delta(1, V)))
    assert lhs.isclose(rhs, 1e-14)
    assert lhs.coeff(1, 1) == pytest.approx(1.0)
    with pytest.raises(AlgebraError):
        delta(3, U)


def exp_series_oracle(h, scl, tol=1e-13):
    """Power series sum h^j / j! with a rigorous l1 tail bound."""
    x = scale(scl, h)
    norm = x.l1_norm()
    term = unit(h.angle)
    acc = unit(h.angle)
    j = 0
    while True:
        j += 1
        term = scale(1.0 / j, mul(term, x))
        acc = add(acc, term)
        # tail <= norm^{j+1}/(j+1)! * e^norm
        tail = norm ** (j + 1) / math.factorial(j + 1) * math.exp(norm)
        if tail < tol:
            return acc


def test_exp_trivial_and_scalar():
    e, conv = exp_selfadjoint(alg.zero(), 0.5, pad=4)
    assert e.isclose(ONE)
    assert conv < 1e-14
    s = 0.7
    e, _ = exp_selfadjoint(scale(s, ONE), 1.0, pad=4)
    assert e.coeff(0, 0) == pytest.approx(math.exp(s), rel=1e-12)


def test_exp_matches_power_series():
    h = scale(0.4, add(U, adjoint(U)))
    e, conv = exp_selfadjoint(h, 1.0, pad=24)
    oracle = exp_series_oracle(h, 1.0)
    assert conv < 1e-12
    keys = set(e.coeffs) | {k for k in oracle.coeffs if abs(oracle.coeff(*k)) > 1e-12}
    for k in keys:
        assert e.coeff(*k) == pytest.approx(oracle.coeff(*k), abs=1e-10)


def test_exp_rejects_non_selfadjoint():
    with pytest.raises(AlgebraError):
        exp_selfadjoint(make_monomial(1, 0, 1.0), 1.0)


def test_exp_padding_convergence_is_checked():
    """The l1 change between pads is always checked: for h = 2(U + U*) a pad
    of 4 changes e^{h/2} by about 2e-2 and raises, a pad of 16 converges."""
    h = scale(2.0, add(U, adjoint(U)))
    with pytest.raises(NonConvergence, match="pad=4"):
        exp_selfadjoint(h, 0.5, pad=4)
    _, conv = exp_selfadjoint(h, 0.5, pad=16)
    assert conv < alg.EXP_CONV_TOL


def test_exp_consistency_inverse_pair():
    rng = np.random.default_rng(3)
    h = alg.random_selfadjoint(rng, 2, scale_coeff=0.4)
    ep, _ = exp_selfadjoint(h, 1.0, pad=20)
    em, _ = exp_selfadjoint(h, -1.0, pad=20)
    resid = add(mul(ep, em), scale(-1.0, ONE))
    assert resid.l1_norm() < 1e-9


@pytest.fixture(scope="module")
def cd_default():
    h = scale(0.4, add(U, adjoint(U)))
    return ConformalData.build(ModuliPoint(0.0, 1.0), h, pad=16)


def test_phi_examples(cd_default):
    flat = ConformalData.build(ModuliPoint(0.0, 1.0), alg.zero(), pad=2)
    assert phi(ONE, flat) == pytest.approx(1.0)
    assert phi(ONE, cd_default) == pytest.approx(trace_t(cd_default.k_inv2))
    # t(e^{-h}) for h = 0.4(U + U*) is the Bessel integral I_0(0.8)
    from scipy.special import iv

    assert phi(ONE, cd_default) == pytest.approx(iv(0, 0.8), abs=1e-9)


def test_kms_twisted_trace(cd_default):
    """phi(a b) = phi(b sigma(a)) with the modular automorphism
    sigma(a) = e^{-h} a e^{h}, e^{h} = k k."""
    rng = np.random.default_rng(5)
    k2 = mul(cd_default.k, cd_default.k)
    for _ in range(20):
        a = alg.random_element(rng, 3)
        b = alg.random_element(rng, 3)
        lhs = phi(mul(a, b), cd_default)
        rhs = phi(mul(b, mul(cd_default.k_inv2, mul(a, k2))), cd_default)
        assert abs(lhs - rhs) < 1e-10


def test_integration_by_parts_and_star_derivation():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = alg.random_element(rng, 4)
        b = alg.random_element(rng, 4)
        for j in (1, 2):
            s = trace_t(mul(a, delta(j, b))) + trace_t(mul(delta(j, a), b))
            assert abs(s) < 1e-12
            lhs = delta(j, adjoint(a))
            rhs = scale(-1.0, adjoint(delta(j, a)))
            assert lhs.isclose(rhs, 1e-12)


def test_positivity_of_trace():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = alg.random_element(rng, 4)
        v = trace_t(mul(adjoint(a), a))
        assert abs(v.imag) < 1e-12
        assert v.real >= -1e-12
        # equals the coefficient l2 norm squared
        assert v.real == pytest.approx(sum(abs(c) ** 2 for c in a.coeffs.values()), rel=1e-12)


def test_commutation_invariant():
    resid = add(mul(V, U), scale(-OMEGA, mul(U, V)))
    assert all(abs(c) < 1e-14 for c in resid.coeffs.values())


def test_json_round_trip_and_unsorted_reader():
    rng = np.random.default_rng(23)
    a = alg.random_element(rng, 5)
    d = alg.to_json_dict(a)
    # writer emits sorted coefficient rows
    assert d["coeffs"] == sorted(d["coeffs"], key=lambda r: (r[0], r[1]))
    assert alg.from_json_dict(d).isclose(a, 0.0)
    # reader accepts shuffled input
    shuffled = {"theta": d["theta"], "coeffs": list(reversed(d["coeffs"]))}
    assert alg.from_json_dict(shuffled).isclose(a, 0.0)
    assert alg.from_json_dict(json.loads(json.dumps(d))).isclose(a, 0.0)


def test_inner_product_orthonormal_monomials():
    assert inner_product(U, U) == pytest.approx(1.0)
    assert inner_product(U, V) == 0.0
    uv = mul(U, V)
    assert inner_product(uv, uv) == pytest.approx(1.0)


def test_trace_of_product_pairing():
    rng = np.random.default_rng(29)
    for _ in range(30):
        a = alg.random_element(rng, 4)
        b = alg.random_element(rng, 4)
        assert alg.trace_of_product(a, b) == pytest.approx(
            trace_t(mul(a, b)), abs=1e-13
        )


# the largest |k| a real caller twists: mul on criterion 9's KMS weight
# (pad 32) reaches 1440, trace_of_product 1320, _mult_section 312
TWIST_REACH = 38


@pytest.mark.parametrize("theta", (GOLDEN.theta, 0.5, 0.1))
def test_twist_table_matches_direct_exp(theta):
    """The table gives the bits of np.exp(2j pi theta k) for the integer
    arrays mul (n p) and adjoint (m n) build, read before and after the
    table has grown."""
    alg._twist_table.cache_clear()
    for reach in (2, TWIST_REACH):
        r = np.arange(-reach, reach + 1)
        for k in (r[:, None] * r[None, :], r[::-1, None] * r[None, 1:4], r):
            assert alg._twist(theta, k).tobytes() == np.exp(2j * math.pi * theta * k).tobytes()


def test_twist_tables_are_per_angle_and_grow():
    alg._twist_table.cache_clear()
    small = alg._twist(0.1, np.array([3]))
    table = alg._twist_table(0.1)
    assert alg._twist_table(0.5) is not table
    assert alg._twist(0.5, np.array([3]))[0] != small[0]
    size = table[0].size
    alg._twist(0.1, np.array([-5 * size]))
    assert table[0].size >= 10 * size + 1
    assert alg._twist_table(0.5)[0].size < table[0].size


def _overlap_scale(a, b) -> float:
    """sum of |a_{m,n}| |b_{-m,-n}|: the size of trace(a b)'s terms."""
    return sum(abs(v) * abs(b.coeff(-m, -n)) for (m, n), v in a.coeffs.items())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), theta=st.sampled_from(MUL_THETAS))
def test_trace_of_product_matches_adjoint_route(data, theta):
    """The flipped-overlap sum against the route it replaced,
    <a, b*> = inner_product(a, adjoint(b))."""
    angle = DeformationAngle(theta)
    a, b = data.draw(boxed_elements(angle)), data.draw(boxed_elements(angle))
    got = alg.trace_of_product(a, b)
    scale_ = _overlap_scale(a, b)
    if scale_ == 0.0:
        assert got == 0j
    assert abs(got - inner_product(a, adjoint(b))) <= 1e-14 * scale_


def test_trace_of_product_edge_supports():
    a = NcElement(GOLDEN, 4, {(1, 2): 2.0, (3, 3): 1j})
    far = NcElement(GOLDEN, 4, {(1, 2): 1.0, (-1, 4): 1.0})   # flipped box misses a's
    assert alg.trace_of_product(a, far) == 0j
    assert alg.trace_of_product(a, alg.zero()) == 0j
    assert alg.trace_of_product(alg.zero(), a) == 0j
    one = NcElement(GOLDEN, 4, {(-3, -3): 0.5, (0, 4): 1.0})   # overlap: (3, 3) alone
    assert alg.trace_of_product(a, one) == pytest.approx(
        1j * 0.5 * cmath.exp(-2j * math.pi * THETA * 9), abs=1e-15)
    assert alg.trace_of_product(a, one) == pytest.approx(trace_t(mul(a, one)), abs=1e-15)


def test_phi_is_the_trace_of_the_weighted_product(cd_default):
    rng = np.random.default_rng(37)
    for _ in range(20):
        a = alg.random_element(rng, 5)
        assert phi(a, cd_default) == pytest.approx(
            trace_t(mul(a, cd_default.k_inv2)), rel=1e-13, abs=1e-15)


def test_crop_after_cancelling_edges():
    """Boxes whose edge rows or columns cancel are still cut to the support,
    and equal elements keep equal coeff_key."""
    a = NcElement(GOLDEN, 3, {(0, 0): 1.0, (2, 1): 2.0, (1, -1): 1.0})
    minus_edge = NcElement(GOLDEN, 3, {(2, 1): -2.0})
    cut = add(a, minus_edge)                   # row m = 2 and column n = 1 cancel
    want = NcElement(GOLDEN, 3, {(0, 0): 1.0, (1, -1): 1.0})
    assert (cut.corner, cut.box.shape) == ((0, -1), (2, 2))
    assert alg.coeff_key(cut) == alg.coeff_key(want)
    assert delta(1, a).corner == (1, -1)        # delta_1 zeroes the row m = 0
    tiny = NcElement(GOLDEN, 1, {(0, 0): 1e-200, (1, 0): 1.0})
    prod = mul(tiny, tiny)                      # the (0, 0) coefficient underflows
    assert (prod.corner, prod.box.shape) == ((1, 0), (2, 1))
    assert alg.coeff_key(prod) == alg.coeff_key(
        NcElement(GOLDEN, 2, {(1, 0): 2e-200, (2, 0): 1.0}))
    for e in (a, cut, prod):
        gone = add(e, scale(-1, e))
        assert gone.box.shape == (0, 0) and gone.corner == (0, 0)
        assert alg.coeff_key(gone) == alg.coeff_key(alg.zero())


def test_conformal_data_keeps_exp_convergence(cd_default):
    assert cd_default.k_convergence == exp_selfadjoint(cd_default.h, 0.5, 16)[1]
    assert cd_default.k_inv2_convergence == exp_selfadjoint(cd_default.h, -1.0, 16)[1]
    assert cd_default.k_inv2_convergence <= alg.EXP_CONV_TOL
