"""Exact calculus of classical pseudodifferential symbols on the torus algebra.

A classical symbol is stored layer by layer: homogeneity degree d maps to an
angular spectrum, winding number w maps to an algebra element, and evaluation
at xi = r (cos a, sin a) means sum_d r^d sum_w e^{i w a} coef(d, w).  In this
representation homogeneity is structural, the xi derivatives act exactly on
(degree, winding) pairs, and the noncommutative residue is a single read-out
of the winding-zero coefficient at degree -2.  Pointwise evaluation
(``eval_at``) and the exact polynomial symbols of differential operators
(``PolySymbol``) are the references that the finite sections and the graded
calculus are tested against.  Every route reads a graded symbol through
its layers, the resolvent's classical expansion included.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BasisWindow,
    DeformationAngle,
    ModuliPoint,
    NcElement,
    _element,
    _mult_section,
    _twist,
    adjoint,
    add,
    delta,
    from_json_dict,
    mul,
    scale,
    to_json_dict,
    trace_t,
    unit,
    zero,
)
from .gns import FiniteSectionOperator, quadratic_form_values

DEFAULT_WINDING_CUTOFF = 32
# default depth below the leading term retained by compositions
DEFAULT_EXTRA_LAYERS = 3
# FFT points on the unit circle behind classicalize_resolvent's windings
N_ANGULAR = 2048


class SymbolError(ValueError):
    """Invalid symbol data or unsupported symbol operation."""


class OriginRegularization(UserWarning):
    """A negative-order homogeneous layer was dropped at xi = 0."""


def _layer_add(layers: dict, d: int, w: int, elem: NcElement):
    if not elem.l1_norm():
        return
    spectrum = layers.setdefault(d, {})
    if w in spectrum:
        spectrum[w] = add(spectrum[w], elem)
        if not spectrum[w].l1_norm():
            del spectrum[w]
    else:
        spectrum[w] = elem
    if not spectrum:
        layers.pop(d, None)


class GradedSymbol:
    """Classical symbol graded by homogeneity degree and angular winding.

    layers: {degree d: {winding w: NcElement}}; absent entries are zero.
    Retained degrees run from top_order down to top_order - depth + 1;
    evaluation, finite sections and apply_op read the layers alone.
    """

    __slots__ = ("angle", "top_order", "depth", "layers", "winding_cutoff", "diagnostics")

    def __init__(self, angle: DeformationAngle, top_order: int, depth: int,
                 layers: dict, winding_cutoff: int = DEFAULT_WINDING_CUTOFF,
                 diagnostics: dict | None = None):
        if depth < 1:
            raise SymbolError("depth must be >= 1")
        lo = top_order - depth + 1
        clean: dict = {}
        for d, spectrum in layers.items():
            if not lo <= d <= top_order:
                raise SymbolError(
                    f"layer degree {d} outside retained range [{lo}, {top_order}]"
                )
            for w, elem in spectrum.items():
                if abs(w) > winding_cutoff:
                    raise SymbolError(f"winding {w} beyond cutoff {winding_cutoff}")
                _layer_add(clean, d, w, elem)
        self.angle = angle
        self.top_order = int(top_order)
        self.depth = int(depth)
        self.layers = clean
        self.winding_cutoff = int(winding_cutoff)
        self.diagnostics = dict(diagnostics or {})

    def layer(self, d: int) -> dict:
        return self.layers.get(d, {})

    def coefficient(self, d: int, w: int) -> NcElement:
        return self.layers.get(d, {}).get(w, zero(self.angle))

    def eval_at(self, x1: float, x2: float) -> NcElement:
        """Pointwise value as an algebra element.

        Negative-order homogeneous layers are singular at the origin; there
        those layers are treated as zero and a warning is emitted.
        """
        r = math.hypot(x1, x2)
        if r == 0.0:
            out = self.coefficient(0, 0)
            dropped = [d for d in self.layers if d < 0]
            if dropped:
                warnings.warn(
                    "negative-order layers treated as 0 at xi = 0 "
                    f"(degrees {sorted(dropped)})",
                    OriginRegularization,
                    stacklevel=2,
                )
            return out
        ang = math.atan2(x2, x1)
        out = zero(self.angle)
        for d, spectrum in self.layers.items():
            rd = r ** d
            for w, elem in spectrum.items():
                out = add(out, scale(rd * cmath.exp(1j * w * ang), elem))
        return out

    def star(self) -> "GradedSymbol":
        """Symbol-level star: winding reflection with coefficient adjoints."""
        out: dict = {}
        for d, spectrum in self.layers.items():
            for w, elem in spectrum.items():
                _layer_add(out, d, -w, adjoint(elem))
        return GradedSymbol(self.angle, self.top_order, self.depth, out,
                            self.winding_cutoff)

    def __repr__(self):
        degs = sorted(self.layers, reverse=True)
        return (f"GradedSymbol(top={self.top_order}, depth={self.depth}, "
                f"degrees={degs})")


@dataclass
class PolySymbol:
    """Polynomial symbol of a differential operator: {(j1, j2): coefficient}."""

    angle: DeformationAngle
    monomials: dict

    def __post_init__(self):
        self.monomials = {
            (int(j1), int(j2)): c
            for (j1, j2), c in self.monomials.items()
            if c.l1_norm()
        }
        for j1, j2 in self.monomials:
            if j1 < 0 or j2 < 0:
                raise SymbolError("polynomial exponents must be non-negative")

    @property
    def order(self) -> int:
        return max((j1 + j2 for j1, j2 in self.monomials), default=0)

    def eval_at(self, x1: float, x2: float) -> NcElement:
        out = zero(self.angle)
        for (j1, j2), c in self.monomials.items():
            out = add(out, scale((x1 ** j1) * (x2 ** j2), c))
        return out

    def to_graded(self) -> GradedSymbol:
        """Exact conversion: a xi-monomial of degree d fills layer d with
        windings |w| <= d of matching parity; the winding cutoff is
        DEFAULT_WINDING_CUTOFF."""
        layers: dict = {}
        for (j1, j2), c in self.monomials.items():
            wind = {0: 1.0 + 0.0j}
            for _ in range(j1):
                wind = _winding_mul(wind, {1: 0.5, -1: 0.5})
            for _ in range(j2):
                wind = _winding_mul(wind, {1: -0.5j, -1: 0.5j})
            for w, amp in wind.items():
                if amp != 0.0:
                    _layer_add(layers, j1 + j2, w, scale(amp, c))
        top = self.order
        return GradedSymbol(self.angle, top, top + 1, layers, DEFAULT_WINDING_CUTOFF)


def _winding_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0.0) + ca * cb
    return out


def flat_laplacian_symbol(tau: ModuliPoint, angle: DeformationAngle) -> PolySymbol:
    """Symbol of the flat Laplacian: Q(xi) with scalar coefficients."""
    one = unit(angle)
    return PolySymbol(angle, {
        (2, 0): one,
        (1, 1): scale(2.0 * tau.re, one),
        (0, 2): scale(tau.abs2, one),
    })


# ---------------------------------------------------------------------------
# xi derivatives

def xi_derivative(s: GradedSymbol, axis: int) -> GradedSymbol:
    """Exact derivative on r^d e^{i w a}:

    d/dxi1 -> r^{d-1} [ (d-w)/2 e^{i(w+1)a} + (d+w)/2 e^{i(w-1)a} ]
    d/dxi2 -> same winding shifts with factors -i and +i respectively.
    """
    if axis not in (1, 2):
        raise SymbolError("axis must be 1 or 2")
    up = 1.0 if axis == 1 else -1.0j
    down = 1.0 if axis == 1 else 1.0j
    layers: dict = {}
    lost = 0.0
    W = s.winding_cutoff
    for d, spectrum in s.layers.items():
        for w, elem in spectrum.items():
            cu = up * (d - w) / 2.0
            cdn = down * (d + w) / 2.0
            for wn, cc in ((w + 1, cu), (w - 1, cdn)):
                if cc == 0.0:
                    continue
                if abs(wn) > W:
                    lost += abs(cc) * elem.l1_norm()
                    continue
                _layer_add(layers, d - 1, wn, scale(cc, elem))
    out = GradedSymbol(s.angle, s.top_order - 1, s.depth, layers, W)
    if lost > 0.0:
        out.diagnostics["discarded_winding_mass"] = lost
    return out


def poly_xi_derivative(p: PolySymbol, axis: int) -> PolySymbol:
    if axis not in (1, 2):
        raise SymbolError("axis must be 1 or 2")
    out: dict = {}
    for (j1, j2), c in p.monomials.items():
        e = j1 if axis == 1 else j2
        if e:
            key = (j1 - 1, j2) if axis == 1 else (j1, j2 - 1)
            out[key] = add(out[key], scale(e, c)) if key in out else scale(e, c)
    return PolySymbol(p.angle, out)


def _poly_delta(p: PolySymbol, axis: int) -> PolySymbol:
    return PolySymbol(p.angle, {k: delta(axis, c) for k, c in p.monomials.items()})


def _graded_delta(s: GradedSymbol, axis: int) -> GradedSymbol:
    layers = {
        d: {w: delta(axis, e) for w, e in spec.items()}
        for d, spec in s.layers.items()
    }
    return GradedSymbol(s.angle, s.top_order, s.depth, layers, s.winding_cutoff)


# ---------------------------------------------------------------------------
# composition and adjoint

def _leibniz(x, rule, n: int, *args) -> dict:
    """Every mixed derivative rule_1^{l1} rule_2^{l2} x with l1 + l2 <= n, each
    taken once from its predecessor: {(l1, l2): (1/(l1! l2!), derivative)},
    ordered by l1, then l2.  rule(x, axis, *args) is one derivative along axis."""
    out: dict = {}
    for l1 in range(n + 1):
        d = x if l1 == 0 else rule(out[(l1 - 1, 0)][1], 1, *args)
        for l2 in range(n + 1 - l1):
            if l2:
                d = rule(d, 2, *args)
            out[(l1, l2)] = (1.0 / (math.factorial(l1) * math.factorial(l2)), d)
    return out


def compose_poly(p: PolySymbol, q: PolySymbol) -> PolySymbol:
    """Exact product symbol of two differential operators:
    sum_l (1/l!) d_xi^l(p) delta^l(q); the sum terminates."""
    if p.angle != q.angle:
        raise SymbolError("deformation angles do not match")
    out: dict = {}
    qd = _leibniz(q, _poly_delta, p.order)
    for l, (f, pd) in _leibniz(p, poly_xi_derivative, p.order).items():
        for (a1, a2), ca in pd.monomials.items():
            for (b1, b2), cb in qd[l][1].monomials.items():
                key = (a1 + b1, a2 + b2)
                term = scale(f, mul(ca, cb))
                out[key] = add(out[key], term) if key in out else term
    return PolySymbol(p.angle, out)


def compose(p: GradedSymbol, q: GradedSymbol, order_cutoff: int | None = None) -> GradedSymbol:
    """Asymptotic product of classical symbols, retaining layers >= order_cutoff.

    Terms of the expansion sum_l (1/l!) d_xi^l(p) delta^l(q) land at degree
    d_p - |l| + d_q; the default cutoff keeps DEFAULT_EXTRA_LAYERS layers below
    the leading degree.  Winding overflow beyond the cutoff is discarded and
    its l1 mass reported in diagnostics.
    """
    if p.angle != q.angle:
        raise SymbolError("deformation angles do not match")
    top = p.top_order + q.top_order
    if order_cutoff is None:
        order_cutoff = top - DEFAULT_EXTRA_LAYERS
    if order_cutoff > top:
        raise SymbolError("order_cutoff above the top order of the product")
    W = max(p.winding_cutoff, q.winding_cutoff)
    layers: dict = {}
    lost = 0.0
    qd = _leibniz(q, _graded_delta, top - order_cutoff)
    for l, (f, pd) in _leibniz(p, xi_derivative, top - order_cutoff).items():
        lost += pd.diagnostics.get("discarded_winding_mass", 0.0)
        for dp, pspec in pd.layers.items():
            for dq, qspec in qd[l][1].layers.items():
                dtot = dp + dq
                if dtot < order_cutoff:
                    continue
                for wp, ep in pspec.items():
                    for wq, eq in qspec.items():
                        term = scale(f, mul(ep, eq))
                        if abs(wp + wq) > W:
                            lost += term.l1_norm()
                            continue
                        _layer_add(layers, dtot, wp + wq, term)
    diag = {"discarded_winding_mass": lost} if lost > 0.0 else {}
    return GradedSymbol(p.angle, top, top - order_cutoff + 1, layers, W,
                        diagnostics=diag)


def adjoint_symbol(p: GradedSymbol) -> GradedSymbol:
    """Truncated adjoint expansion sum_l (1/l!) d_xi^l delta^l (p*), keeping
    DEFAULT_EXTRA_LAYERS layers below the leading degree."""
    order_cutoff = p.top_order - DEFAULT_EXTRA_LAYERS
    layers: dict = {}
    lost = 0.0
    # d_xi^l delta^l = (d_xi1 delta_1)^l1 (d_xi2 delta_2)^l2: the two commute
    terms = _leibniz(p.star(), lambda s, ax: xi_derivative(_graded_delta(s, ax), ax),
                     p.top_order - order_cutoff)
    for f, term in terms.values():
        lost += term.diagnostics.get("discarded_winding_mass", 0.0)
        for d, spectrum in term.layers.items():
            if d < order_cutoff:
                continue
            for w, elem in spectrum.items():
                _layer_add(layers, d, w, scale(f, elem))
    diag = {"discarded_winding_mass": lost} if lost > 0.0 else {}
    return GradedSymbol(p.angle, p.top_order, p.top_order - order_cutoff + 1,
                        layers, p.winding_cutoff, diagnostics=diag)


def adjoint_poly(p: PolySymbol) -> PolySymbol:
    """Exact adjoint symbol of a differential operator."""
    starred = PolySymbol(p.angle, {k: adjoint(c) for k, c in p.monomials.items()})
    out: dict = {}
    terms = _leibniz(starred, lambda s, ax: poly_xi_derivative(_poly_delta(s, ax), ax),
                     starred.order)
    for f, term in terms.values():
        for key, c in term.monomials.items():
            sc = scale(f, c)
            out[key] = add(out[key], sc) if key in out else sc
    return PolySymbol(p.angle, out)


# ---------------------------------------------------------------------------
# operator action

def _column_terms(p, mm, nn) -> dict:
    """{shift (r, s): coefficient of U^r V^s in p(mm[i], nn[i]), for each i}.

    The symbol is expanded once into (weights over the grid, element) pairs.
    A GradedSymbol keeps only its (0, 0) layer at the origin, as eval_at
    does, with one warning for all such grid points."""
    mm = np.asarray(mm, dtype=float)
    nn = np.asarray(nn, dtype=float)
    if isinstance(p, PolySymbol):
        pairs = [(mm ** j1 * nn ** j2, c) for (j1, j2), c in p.monomials.items()]
    else:
        origin = (mm == 0.0) & (nn == 0.0)
        r = np.where(origin, 1.0, np.sqrt(mm * mm + nn * nn))
        ang = np.arctan2(nn, mm)
        pairs = [(np.where(origin, float(d == 0 and w == 0), r ** d * np.exp(1j * w * ang)), e)
                 for d, spectrum in p.layers.items() for w, e in spectrum.items()]
        if origin.any() and any(d < 0 for d in p.layers):
            warnings.warn(
                f"{int(origin.sum())} column(s) used the origin regularization policy",
                OriginRegularization,
                stacklevel=4,
            )
    terms: dict = {}
    for weights, elem in pairs:
        for rs, c in elem.coeffs.items():
            terms[rs] = terms.get(rs, 0.0) + weights * c
    return terms


def apply_op(p, a: NcElement) -> NcElement:
    """Apply the pseudodifferential operator of p to an algebra element.

    On monomials the action is diagonal in the Fourier index: the operator
    sends U^m V^n to p(m, n) U^m V^n, extended linearly; a coefficient v of
    U^r V^s in p(m, n) lands at (r + m, s + n) as v e^{2 pi i theta s m}.
    """
    if not a.l1_norm():
        return zero(a.angle)
    m, n, vals = a.terms()
    terms = _column_terms(p, m, n)
    if not terms:
        return zero(a.angle)
    shifts = np.array(list(terms))
    lo = np.array([m.min(), n.min()]) + shifts.min(axis=0)
    out = np.zeros(np.array([m.max(), n.max()]) + shifts.max(axis=0) - lo + 1, dtype=complex)
    for (r, s), coef in terms.items():
        out[m + r - lo[0], n + s - lo[1]] += vals * coef * _twist(a.theta, s * m)
    bw = a.support_bandwidth() + int(np.abs(shifts).max())
    return _element(a.angle, bw, lo, out)


def finite_section_of_op(p, w: BasisWindow) -> FiniteSectionOperator:
    """Sparse finite section of the operator of p on the window: column (m,n)
    holds the coefficients of the operator applied to U^m V^n, clipped to the
    window."""
    mm, nn = w.index_grids()
    return FiniteSectionOperator(
        w, _mult_section(p.angle.theta, _column_terms(p, mm, nn), w))


# ---------------------------------------------------------------------------
# resolvent classicalization and the residue

def classicalize_resolvent(c0: float, tau: ModuliPoint, depth: int,
                           angle: DeformationAngle,
                           winding_cutoff: int = DEFAULT_WINDING_CUTOFF) -> GradedSymbol:
    """Classical expansion of (c0 + flat Laplacian)^{-1}.

    Layer j sits at degree -2-2j and equals (-c0)^j Q(xi)^{-1-j}, expanded in
    angular windings by FFT projection on N_ANGULAR points of the unit circle
    (a single winding when tau = i).  The trailing angular mass beyond the
    winding cutoff is recorded in diagnostics and warned about above 1e-9.
    The symbol is these layers alone: its residue reads them, and a finite
    section drops them at the origin column as for any graded symbol.
    """
    if depth < 1:
        raise SymbolError("depth must be >= 1")
    if c0 <= 0:
        raise SymbolError("c0 must be positive")
    phis = 2.0 * math.pi * np.arange(N_ANGULAR) / N_ANGULAR
    q = quadratic_form_values(tau, np.cos(phis), np.sin(phis))
    one = unit(angle)
    layers: dict = {}
    lost = 0.0
    W = winding_cutoff
    windings = np.arange(-N_ANGULAR // 2 + 1, N_ANGULAR // 2 + 1)
    for j in range(depth):
        vals = ((-c0) ** j) * q ** (-1.0 - j)
        fc = np.fft.fft(vals) / N_ANGULAR
        tiny = 1e-15 * float(np.max(np.abs(fc)))
        # the windings not at or below tiny, ascending: the lost mass sums in that order
        for w in windings[~(np.abs(fc[windings % N_ANGULAR]) <= tiny)].tolist():
            c = complex(fc[w % N_ANGULAR])
            if abs(w) > W:
                lost += abs(c)
                continue
            _layer_add(layers, -2 - 2 * j, w, scale(c, one))
    if lost > 1e-9:
        warnings.warn(
            f"angular winding cutoff {W} insufficient: discarded mass {lost:.3e}",
            UserWarning,
            stacklevel=2,
        )
    diag = {"discarded_winding_mass": lost} if lost > 0.0 else {}
    return GradedSymbol(angle, -2, 2 * depth - 1, layers, W, diagnostics=diag)


def residue(p: GradedSymbol) -> complex:
    """Noncommutative residue: the circle integral of the trace of the
    degree -2 layer, i.e. 2 pi times the trace of its winding-zero part."""
    return 2.0 * math.pi * trace_t(p.coefficient(-2, 0))


# ---------------------------------------------------------------------------
# serialization and pretty printing

def symbol_to_json_dict(p: GradedSymbol) -> dict:
    layers = {
        str(d): {str(w): to_json_dict(e) for w, e in sorted(spec.items())}
        for d, spec in sorted(p.layers.items())
    }
    return {
        "top_order": p.top_order,
        "depth": p.depth,
        "winding_cutoff": p.winding_cutoff,
        "theta": p.angle.theta,
        "layers": layers,
    }


def symbol_from_json_dict(d: dict) -> GradedSymbol:
    angle = DeformationAngle(float(d["theta"]))
    layers: dict = {}
    for ds, spec in d["layers"].items():
        for ws, ej in spec.items():
            _layer_add(layers, int(ds), int(ws), from_json_dict(ej))
    return GradedSymbol(angle, int(d["top_order"]), int(d["depth"]), layers,
                        int(d.get("winding_cutoff", DEFAULT_WINDING_CUTOFF)))


def format_symbol(p: GradedSymbol) -> str:
    """Human-readable rendering of the layers as xi-expressions, with at most
    6 coefficients written out per winding."""
    lines = [f"classical symbol, order {p.top_order}, depth {p.depth}"]
    for d in sorted(p.layers, reverse=True):
        parts = []
        for w in sorted(p.layer(d)):
            elem = p.layer(d)[w]
            coeffs = sorted(elem.coeffs.items())
            body = " + ".join(
                f"({c:.6g})U^{m}V^{n}" for (m, n), c in coeffs[:6]
            )
            if len(coeffs) > 6:
                body += f" + ... [{len(coeffs)} terms]"
            angular = "" if w == 0 else f" e^{{{w}i phi}}"
            parts.append(f"[{body}]{angular}")
        lines.append(f"  r^{d} * ( " + " + ".join(parts) + " )")
    return "\n".join(lines)
