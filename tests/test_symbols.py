"""Tests for the graded symbol calculus, the residue and symbol JSON."""

import cmath
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nctorus import algebra as alg
from nctorus.algebra import (
    GOLDEN,
    ModuliPoint,
    NcElement,
    adjoint,
    add,
    delta,
    inner_product,
    make_monomial,
    mul,
    scale,
    trace_t,
    unit,
    zero,
)
from nctorus.gns import BasisWindow, flat_laplacian_matrix, left_mult_matrix, quadratic_form_values
from nctorus import symbols as sym
from nctorus.symbols import (
    GradedSymbol,
    OriginRegularization,
    PolySymbol,
    adjoint_poly,
    adjoint_symbol,
    apply_op,
    classicalize_resolvent,
    compose,
    compose_poly,
    finite_section_of_op,
    flat_laplacian_symbol,
    residue,
    xi_derivative,
)

TAU_I = ModuliPoint(0.0, 1.0)
ONE = unit()
U = make_monomial(1, 0)


def graded_monomial(d, w, elem, depth=1, W=32):
    return GradedSymbol(elem.angle, d, depth, {d: {w: elem}}, W)


def sample_values(s, radii=(1.0, 2.0), n_ang=24):
    """Dense evaluation of a graded symbol on circles, coefficient-wise."""
    vals = []
    for r in radii:
        for k in range(n_ang):
            a = 2 * math.pi * k / n_ang
            vals.append(s.eval_at(r * math.cos(a), r * math.sin(a)))
    return vals


def symbols_match_pointwise(s1, s2, tol=1e-10):
    for v1, v2 in zip(sample_values(s1), sample_values(s2)):
        if not v1.isclose(v2, tol):
            return False
    return True


def test_xi_derivative_of_xi_squared():
    # |xi|^2 lives at degree 2, winding 0; its d/dxi1 is 2 xi1
    s = graded_monomial(2, 0, ONE)
    d1 = xi_derivative(s, 1)
    assert d1.top_order == 1
    assert d1.coefficient(1, 1).coeff(0, 0) == pytest.approx(1.0)
    assert d1.coefficient(1, -1).coeff(0, 0) == pytest.approx(1.0)
    two_xi1 = PolySymbol(GOLDEN, {(1, 0): scale(2.0, ONE)}).to_graded()
    assert symbols_match_pointwise(d1, two_xi1)


def test_xi_derivative_of_constant_is_zero():
    s = graded_monomial(0, 0, ONE)
    assert xi_derivative(s, 1).layers == {}
    assert xi_derivative(s, 2).layers == {}


def test_xi_derivative_matches_poly_path():
    # d/dxi2 of xi1 xi2 = xi1, checked through the winding rule
    p = PolySymbol(GOLDEN, {(1, 1): ONE})
    d2 = xi_derivative(p.to_graded(), 2)
    xi1 = PolySymbol(GOLDEN, {(1, 0): ONE}).to_graded()
    assert symbols_match_pointwise(d2, xi1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        mono = {
            (int(rng.integers(0, 3)), int(rng.integers(0, 3))): alg.random_element(rng, 2)
            for _ in range(3)
        }
        p = PolySymbol(GOLDEN, mono)
        for axis in (1, 2):
            lhs = xi_derivative(p.to_graded(), axis)
            rhs = sym.poly_xi_derivative(p, axis).to_graded()
            assert symbols_match_pointwise(lhs, rhs)
    for axis in (0, 3):
        with pytest.raises(sym.SymbolError, match="axis"):
            sym.poly_xi_derivative(p, axis)


def test_degree_bookkeeping():
    rng = np.random.default_rng(3)
    s = GradedSymbol(GOLDEN, 1, 2, {
        1: {0: alg.random_element(rng, 1), 2: alg.random_element(rng, 1)},
        0: {1: alg.random_element(rng, 1)},
    })
    d = xi_derivative(s, 1)
    assert set(d.layers) <= {0, -1}
    q = graded_monomial(2, 0, ONE)
    assert compose(s, q, order_cutoff=0).top_order == 3


def test_poly_to_graded_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mono = {
            (int(rng.integers(0, 4)), int(rng.integers(0, 4))): alg.random_element(rng, 2)
            for _ in range(3)
        }
        p = PolySymbol(GOLDEN, mono)
        g = p.to_graded()
        for x1, x2 in [(1.0, 0.0), (0.5, -1.5), (-2.0, 3.0), (0.0, 1.0)]:
            assert g.eval_at(x1, x2).isclose(p.eval_at(x1, x2), 1e-10)


def test_compose_constant_coefficient():
    d1 = PolySymbol(GOLDEN, {(1, 0): ONE})
    prod = compose_poly(d1, d1)
    assert set(prod.monomials) == {(2, 0)}
    assert prod.monomials[(2, 0)].coeff(0, 0) == pytest.approx(1.0)


def test_compose_first_order_operators():
    rng = np.random.default_rng(7)
    a = alg.random_element(rng, 2)
    b = alg.random_element(rng, 2)
    # (a d1)(b d1) has symbol a b xi1^2 + a delta1(b) xi1
    p = PolySymbol(GOLDEN, {(1, 0): a})
    q = PolySymbol(GOLDEN, {(1, 0): b})
    prod = compose_poly(p, q)
    assert prod.monomials[(2, 0)].isclose(mul(a, b), 1e-12)
    assert prod.monomials[(1, 0)].isclose(mul(a, delta(1, b)), 1e-12)


def operator_matrix_oracle(p, w):
    """Apply the operator to every basis monomial and collect columns."""
    mat = np.zeros((w.dim, w.dim), dtype=complex)
    for col in range(w.dim):
        m, n = w.pair_of(col)
        img = apply_op(p, make_monomial(m, n))
        for idx in range(w.dim):
            r, s = w.pair_of(idx)
            mat[idx, col] = img.coeff(r, s)
    return mat


def test_compose_matches_operator_product():
    rng = np.random.default_rng(9)
    w = BasisWindow(6)
    inner = BasisWindow(2)
    cols = [w.index_of(*inner.pair_of(i)) for i in range(inner.dim)]
    rows = cols
    for _ in range(5):
        p = PolySymbol(GOLDEN, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 3)
            for _ in range(2)
        })
        q = PolySymbol(GOLDEN, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 3)
            for _ in range(2)
        })
        Mp = finite_section_of_op(p, w).entries
        Mq = finite_section_of_op(q, w).entries
        Mpq = finite_section_of_op(compose_poly(p, q), w).entries
        sub = np.ix_(rows, cols)
        assert np.allclose((Mp @ Mq)[:, cols][rows, :], Mpq[sub], atol=1e-12)


def test_graded_compose_agrees_with_poly_compose():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = PolySymbol(GOLDEN, {
            (int(rng.integers(0, 3)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 3)
            for _ in range(2)
        })
        q = PolySymbol(GOLDEN, {
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 3)
            for _ in range(2)
        })
        graded = compose(p.to_graded(), q.to_graded(), order_cutoff=0)
        exact = compose_poly(p, q).to_graded()
        assert symbols_match_pointwise(graded, exact, 1e-9)


def test_compose_associativity_up_to_cutoff():
    rng = np.random.default_rng(13)
    for _ in range(3):
        ps = []
        for _ in range(3):
            mono = {
                (int(rng.integers(0, 2)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 2)
                for _ in range(2)
            }
            ps.append(PolySymbol(GOLDEN, mono).to_graded())
        p, q, r = ps
        cutoff = p.top_order + q.top_order + r.top_order - 2
        left = compose(compose(p, q, cutoff - r.top_order), r, cutoff)
        right = compose(p, compose(q, r, cutoff - p.top_order), cutoff)
        for d in range(cutoff, left.top_order + 1):
            for w in set(left.layer(d)) | set(right.layer(d)):
                assert left.coefficient(d, w).isclose(right.coefficient(d, w), 1e-12)


def test_adjoint_symbol_scalar_and_first_order():
    c = 2.0 - 1.5j
    p = PolySymbol(GOLDEN, {(1, 0): scale(c, ONE)})
    adj = adjoint_poly(p)
    assert adj.monomials[(1, 0)].coeff(0, 0) == pytest.approx(c.conjugate())
    rng = np.random.default_rng(15)
    a = alg.random_element(rng, 2)
    p = PolySymbol(GOLDEN, {(1, 0): a})
    adj = adjoint_poly(p)
    astar = adjoint(a)
    assert adj.monomials[(1, 0)].isclose(astar, 1e-12)
    assert adj.monomials[(0, 0)].isclose(delta(1, astar), 1e-12)


def test_adjoint_pairing_on_monomials():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = PolySymbol(GOLDEN, {
            (int(rng.integers(0, 3)), int(rng.integers(0, 2))): alg.random_element(rng, 2, 3)
        })
        adj = adjoint_poly(p)
        a = alg.random_element(rng, 3)
        b = alg.random_element(rng, 3)
        lhs = inner_product(apply_op(p, a), b)
        rhs = inner_product(a, apply_op(adj, b))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_flat_laplacian_symbol_selfadjoint_and_matches_matrix():
    for tau in (TAU_I, ModuliPoint(1.0, 1.0), ModuliPoint(0.0, 2.0)):
        s = flat_laplacian_symbol(tau, GOLDEN)
        adj = adjoint_poly(s)
        for key in set(s.monomials) | set(adj.monomials):
            assert s.monomials.get(key, zero()).isclose(
                adj.monomials.get(key, zero()), 1e-12
            )
        w = BasisWindow(4)
        M = finite_section_of_op(s, w).entries
        D = flat_laplacian_matrix(tau, w).entries
        assert np.allclose(M, D, atol=1e-12)


def test_adjoint_graded_involution():
    rng = np.random.default_rng(19)
    p = PolySymbol(GOLDEN, {
        (1, 0): alg.random_element(rng, 2, 3),
        (0, 1): alg.random_element(rng, 2, 3),
        (0, 0): alg.random_element(rng, 2, 3),
    }).to_graded()
    twice = adjoint_symbol(adjoint_symbol(p))
    for d in range(p.top_order - 1, p.top_order + 1):
        for w in set(p.layer(d)) | set(twice.layer(d)):
            assert twice.coefficient(d, w).isclose(p.coefficient(d, w), 1e-10)


THETAS = (alg.GOLDEN_RATIO_THETA, 1.0 / 3.0, 0.5)


@st.composite
def elements(draw, angle):
    """Elements of bandwidth 0-2 with up to four terms, the empty one included."""
    band = draw(st.integers(0, 2))
    idx = st.integers(-band, band)
    coeffs = draw(st.dictionaries(
        st.tuples(idx, idx),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        max_size=4,
    ))
    return NcElement(angle, band, coeffs)


@st.composite
def poly_symbols(draw, angle):
    """Degree <= 2 symbols; empty coefficients are dropped by PolySymbol, so
    the empty symbol occurs too."""
    keys = draw(st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
                         min_size=1, max_size=3, unique=True))
    return PolySymbol(angle, {key: draw(elements(angle)) for key in keys})


@settings(max_examples=30, deadline=None)
@given(data=st.data(), theta=st.sampled_from(THETAS))
def test_poly_calculus_agrees_with_graded_calculus(data, theta):
    angle = alg.DeformationAngle(theta)
    p = data.draw(poly_symbols(angle))
    q = data.draw(poly_symbols(angle))
    pq = compose_poly(p, q)
    p_adj = adjoint_poly(p)
    graded = compose(p.to_graded(), q.to_graded(), order_cutoff=0)
    assert symbols_match_pointwise(pq.to_graded(), graded, 1e-9)
    graded_adj = adjoint_symbol(p.to_graded())
    assert symbols_match_pointwise(p_adj.to_graded(), graded_adj, 1e-9)
    # the operators themselves, which share no code with the Leibniz expansion
    a = data.draw(elements(angle))
    b = data.draw(elements(angle))
    assert apply_op(pq, a).isclose(apply_op(p, apply_op(q, a)), 1e-9)
    assert inner_product(apply_op(p, a), b) == pytest.approx(
        inner_product(a, apply_op(p_adj, b)), abs=1e-9)


def test_apply_op_diagonal_action():
    d1 = PolySymbol(GOLDEN, {(1, 0): ONE})
    for m, n in [(3, 1), (-2, 4), (0, 0)]:
        img = apply_op(d1, make_monomial(m, n))
        assert img.isclose(make_monomial(m, n, float(m)), 1e-13)
    one_sym = PolySymbol(GOLDEN, {(0, 0): ONE})
    rng = np.random.default_rng(21)
    a = alg.random_element(rng, 3)
    assert apply_op(one_sym, a).isclose(a, 1e-13)


def section_by_columns(p, w):
    """Reference section: p.eval_at on one column at a time, each coefficient
    v of U^r V^s placed at (r + m, s + n) as v e^{2 pi i theta s m}."""
    mat = np.zeros((w.dim, w.dim), dtype=complex)
    for col in range(w.dim):
        m, n = w.pair_of(col)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OriginRegularization)
            val = p.eval_at(float(m), float(n))
        for (r, s), v in val.coeffs.items():
            if abs(r + m) <= w.bandwidth and abs(s + n) <= w.bandwidth:
                mat[w.index_of(r + m, s + n), col] = (
                    v * cmath.exp(2j * math.pi * p.angle.theta * s * m))
    return mat


def section_symbols():
    rng = np.random.default_rng(37)
    angle = alg.DeformationAngle(1.0 / 3.0)

    def elem(band=2, terms=3, a=GOLDEN):
        return alg.random_element(rng, band, terms, angle=a)

    poly = PolySymbol(GOLDEN, {(2, 0): elem(), (1, 1): elem(), (0, 0): elem()})
    graded = GradedSymbol(angle, 1, 4, {
        1: {1: elem(a=angle), -1: elem(a=angle)},
        0: {0: elem(a=angle), 2: elem(a=angle)},
        -1: {3: elem(a=angle)},
        -2: {0: elem(a=angle), -2: elem(a=angle)},
    })
    resolvent = classicalize_resolvent(0.7, ModuliPoint(0.3, 0.8), depth=2, angle=GOLDEN)
    return {"poly": poly, "graded": graded, "resolvent": resolvent}


@pytest.mark.parametrize("kind", ["poly", "graded", "resolvent"])
def test_finite_section_matches_column_evaluation(kind):
    p = section_symbols()[kind]
    w = BasisWindow(5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M = finite_section_of_op(p, w).entries
    ref = section_by_columns(p, w)
    assert np.allclose(M, ref, rtol=1e-12, atol=1e-13 * np.max(np.abs(ref)))
    regularized = [c for c in caught if issubclass(c.category, OriginRegularization)]
    if kind in ("graded", "resolvent"):
        # only the origin column drops its negative-order layers, in one warning
        assert len(regularized) == 1
        assert str(regularized[0].message).startswith("1 column(s)")
    else:
        assert not regularized
    # the operator on an element whose images stay inside the window
    a = alg.random_element(np.random.default_rng(41), 2, 8, angle=p.angle)
    vec = np.zeros(w.dim, dtype=complex)
    for (m, n), c in a.coeffs.items():
        vec[w.index_of(m, n)] = c
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OriginRegularization)
        img = apply_op(p, a)
    out = ref @ vec
    assert all(abs(img.coeff(*w.pair_of(i)) - out[i]) <= 1e-12 * np.max(np.abs(out))
               for i in range(w.dim))
    assert all(abs(m) <= w.bandwidth and abs(n) <= w.bandwidth for m, n in img.coeffs)


def test_finite_section_scalar_symbol_diagonal():
    # |xi|^{-2} without an exact evaluator: diagonal with origin dropped
    p = graded_monomial(-2, 0, ONE)
    w = BasisWindow(3)
    with pytest.warns(OriginRegularization):
        M = finite_section_of_op(p, w).entries
    for idx in range(w.dim):
        m, n = w.pair_of(idx)
        expect = 0.0 if (m, n) == (0, 0) else 1.0 / (m * m + n * n)
        assert M[idx, idx] == pytest.approx(expect)
    assert np.count_nonzero(M - np.diag(np.diag(M))) == 0


@pytest.mark.parametrize("theta", [alg.GOLDEN_RATIO_THETA, 1.0 / 3.0])
def test_zeroth_order_symbol_section_is_left_multiplication(theta):
    # a symbol section twists its columns exactly as left multiplication does
    angle = alg.DeformationAngle(theta)
    a = alg.random_element(np.random.default_rng(23), 2, 6, angle=angle)
    w = BasisWindow(4)
    M = finite_section_of_op(PolySymbol(angle, {(0, 0): a}), w).entries
    assert np.max(np.abs(M - left_mult_matrix(a, w).entries)) <= 1e-13


def test_classicalize_resolvent_tau_i():
    p = classicalize_resolvent(1.0, TAU_I, depth=2, angle=GOLDEN)
    assert p.top_order == -2
    assert p.coefficient(-2, 0).coeff(0, 0) == pytest.approx(1.0)
    assert p.coefficient(-4, 0).coeff(0, 0) == pytest.approx(-1.0)
    assert not p.layer(-3)


def test_classicalize_resolvent_generic_tau_pointwise():
    tau = ModuliPoint(1.0, 1.0)
    p = classicalize_resolvent(1.0, tau, depth=1, angle=GOLDEN, winding_cutoff=64)
    # winding-2 content appears in the leading layer
    assert abs(trace_t(p.coefficient(-2, 2))) > 1e-3
    # layer evaluation vs the homogeneous function on a phi grid
    lay = GradedSymbol(GOLDEN, -2, 1, {-2: p.layer(-2)}, p.winding_cutoff)
    for k in range(32):
        a = 2 * math.pi * k / 32
        x1, x2 = math.cos(a), math.sin(a)
        q = x1 * x1 + 2 * x1 * x2 + 2 * x2 * x2
        assert trace_t(lay.eval_at(x1, x2)).real == pytest.approx(1.0 / q, abs=1e-9)


def test_residue_anchor_and_zero_cases():
    p = classicalize_resolvent(1.0, TAU_I, depth=3, angle=GOLDEN)
    assert residue(p) == pytest.approx(2.0 * math.pi, abs=1e-12)
    deep = graded_monomial(-3, 0, ONE)
    assert residue(deep) == 0.0
    # residue of |xi|^{-2} k^{-2} is 2 pi t(k^{-2})
    rng = np.random.default_rng(23)
    kinv2 = alg.random_selfadjoint(rng, 2, scale_coeff=0.5)
    p2 = graded_monomial(-2, 0, kinv2)
    quad = 0.0
    n_ang = 4096
    for k in range(n_ang):
        quad += trace_t(p2.eval_at(math.cos(2 * math.pi * k / n_ang),
                                   math.sin(2 * math.pi * k / n_ang))).real
    quad *= 2 * math.pi / n_ang
    assert residue(p2).real == pytest.approx(quad, abs=1e-10)
    assert residue(p2) == pytest.approx(2 * math.pi * trace_t(kinv2), abs=1e-12)


def test_residue_generic_tau_value():
    for im in (1.0, 2.0):
        p = classicalize_resolvent(1.0, ModuliPoint(0.0, im), depth=1, angle=GOLDEN,
                                   winding_cutoff=48)
        assert residue(p).real == pytest.approx(2 * math.pi / im, abs=1e-9)


def test_residue_is_tracial_on_composition():
    rng = np.random.default_rng(25)
    for _ in range(5):
        p = PolySymbol(GOLDEN, {
            (0, 0): alg.random_element(rng, 2, 3),
            (1, 0): alg.random_element(rng, 1, 2),
        }).to_graded()
        q_top = -2 - p.top_order
        layers = {
            q_top - j: {w: alg.random_element(rng, 1, 2) for w in (-1, 0, 1)}
            for j in range(3)
        }
        q = GradedSymbol(GOLDEN, q_top, 3, layers)
        cutoff = -2 - 1
        pq = compose(p, q, cutoff)
        qp = compose(q, p, cutoff)
        assert abs(residue(pq) - residue(qp)) < 1e-10


def test_symbol_json_round_trip():
    p = classicalize_resolvent(1.0, ModuliPoint(0.5, 1.5), depth=2, angle=GOLDEN,
                               winding_cutoff=48)
    q = sym.symbol_from_json_dict(json.loads(json.dumps(sym.symbol_to_json_dict(p))))
    assert q.top_order == p.top_order and q.depth == p.depth
    for d in p.layers:
        for w in p.layer(d):
            assert q.coefficient(d, w).isclose(p.coefficient(d, w), 1e-14)
    out = sym.format_symbol(p)
    assert "r^-2" in out


def test_winding_overflow_reported():
    with pytest.warns(UserWarning, match="winding cutoff"):
        p = classicalize_resolvent(1.0, ModuliPoint(0.9, 0.35), depth=1, angle=GOLDEN,
                                   winding_cutoff=8)
    assert p.diagnostics.get("discarded_winding_mass", 0.0) > 0.0


def _classicalize_loop_reference(c0, tau, depth, W):
    """classicalize_resolvent's winding loop as it read when it visited every
    FFT coefficient: its (degree, winding, coefficient) layer additions in
    order, and the discarded mass."""
    phis = 2.0 * math.pi * np.arange(sym.N_ANGULAR) / sym.N_ANGULAR
    q = quadratic_form_values(tau, np.cos(phis), np.sin(phis))
    adds, lost = [], 0.0
    for j in range(depth):
        fc = np.fft.fft(((-c0) ** j) * q ** (-1.0 - j)) / sym.N_ANGULAR
        tiny = 1e-15 * float(np.max(np.abs(fc)))
        for w in range(-sym.N_ANGULAR // 2 + 1, sym.N_ANGULAR // 2 + 1):
            c = complex(fc[w % sym.N_ANGULAR])
            if abs(c) <= tiny:
                continue
            if abs(w) > W:
                lost += abs(c)
                continue
            adds.append((-2 - 2 * j, w, c))
    return adds, lost


@pytest.mark.parametrize("c0, tau, depth, W", [
    (1.0, TAU_I, 3, sym.DEFAULT_WINDING_CUTOFF),
    (0.7, ModuliPoint(0.3, 0.8), 2, sym.DEFAULT_WINDING_CUTOFF),
    (1.0, ModuliPoint(0.5, 1.5), 2, 48),
    (1.0, ModuliPoint(0.9, 0.35), 2, 8),
], ids=["tau-i", "generic", "cutoff-48", "lossy"])
def test_classicalize_resolvent_matches_full_loop(c0, tau, depth, W, monkeypatch):
    """Visiting only the windings above tiny makes the same layer additions
    in the same order, with int windings, and the same discarded mass bit for
    bit, as the loop over all N_ANGULAR coefficients."""
    adds = []

    def recording(layers, d, w, elem):
        # the loop's own calls, not GradedSymbol's re-adds of the finished layers
        if sys._getframe(1).f_code.co_name == "classicalize_resolvent":
            adds.append((d, w, elem.coeff(0, 0)))
            assert type(w) is int and elem.coeffs.keys() == {(0, 0)}
        add_layer(layers, d, w, elem)

    add_layer = sym._layer_add
    monkeypatch.setattr(sym, "_layer_add", recording)
    want_adds, want_lost = _classicalize_loop_reference(c0, tau, depth, W)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        p = classicalize_resolvent(c0, tau, depth, GOLDEN, winding_cutoff=W)
    assert adds == want_adds
    assert p.diagnostics.get("discarded_winding_mass", 0.0) == want_lost
    if W == 8:
        assert want_lost > 1e-9


def _assert_well_formed(e: NcElement):
    """What NcElement's constructor checks: every key inside the declared
    bandwidth box, integer keys, nonzero complex coefficients."""
    assert type(e.bandwidth) is int
    assert all(type(m) is int and type(n) is int for m, n in e.coeffs)
    assert all(max(abs(m), abs(n)) <= e.bandwidth for m, n in e.coeffs)
    assert all(type(c) is complex and c != 0 for c in e.coeffs.values())


def test_mul_and_apply_op_results_are_well_formed():
    # (1 + U)(1 - U) = 1 - U^2: the U coefficients cancel exactly
    prod = mul(add(ONE, U), add(ONE, scale(-1.0, U)))
    assert set(prod.coeffs) == {(0, 0), (2, 0)}
    _assert_well_formed(prod)
    # xi_1 sends every column with m = 0 to zero
    d1 = PolySymbol(GOLDEN, {(1, 0): ONE})
    img = apply_op(d1, add(make_monomial(0, 2), make_monomial(1, 1)))
    assert set(img.coeffs) == {(1, 1)}
    _assert_well_formed(img)
    rng = np.random.default_rng(52)
    for _ in range(20):
        a = alg.random_element(rng, 3, 6)
        b = alg.random_element(rng, 2, 5)
        _assert_well_formed(mul(a, b))
        _assert_well_formed(apply_op(PolySymbol(GOLDEN, {(1, 0): b, (0, 2): ONE}), a))
