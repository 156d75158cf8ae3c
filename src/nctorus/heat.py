"""Parametrix terms, contour calculus and heat coefficients.

A term of the resolvent parametrix of the perturbed Laplacian is a sum of
xi-polynomials times ordered words over two kinds of factor: the resolvent
(Q(xi) k^2 - lambda)^{-1} and fixed algebra elements acting by left
multiplication.  The xi-derivative and the torus derivation (of element
factors only) act on that normal form by the Leibniz rule, so every term of
the recursion for the subleading symbols is exact.  A word is evaluated in
the eigenbasis of the k^2 section, selfadjoint and so symmetrized by gns.FiniteSectionOperator,
where the resolvent is diagonal, on the coupling blocks of the window
sections of k^2 and the word's element factors: window matrices
(eval_expr, parametrix_residual) solve every block, and a vacuum expectation
reads the vacuum's block alone, selected by gns.vacuum_block.  Heat
coefficients come from a nested quadrature: lambda over a parabolic contour
around the positive axis (validated against e^{-s} before every run) and xi
over the sheared polar grid in which the leading quadratic form is exactly
r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (BasisWindow, ConformalData, ModuliPoint, NcElement, add, coeff_key, delta,
                      mul, scale)
from .gns import (FiniteSectionOperator, Runs, ascending, block_stacks, coupling_blocks,
                  left_mult_matrix, runs_of, vacuum_block)
from .symbols import _leibniz


class HeatError(RuntimeError):
    """Contour, quadrature or fit failure."""


DIST_TOL = 1e-9   # least admissible distance from lambda to the section spectrum
TAIL_EPS = 1e-14  # default radial cut: e^{-rmax^2 s_min} = TAIL_EPS
TAIL_TOL = 1e-6   # largest admissible radial tail
XI_SAMPLES = ((1.3, 0.4), (-0.7, 1.1), (0.9, -1.2))  # parametrix_residual's points
# nodes of heat_coefficient's angular rule, exact on trigonometric degree < 32
ANGULAR_NODES = 32
# heat_trace_fit admits only t with e^{-t lambda_max} < FIT_TAIL_TOL
FIT_TAIL_TOL = 1e-12
# bytes of heat_coefficient's resolvent diagonals per chunk of radial nodes
# (at least one node): 512 KB keeps a chunk's word chain in cache
CHUNK_BYTES = 1 << 19


# ---------------------------------------------------------------------------
# Laplace symbol data

@dataclass(frozen=True)
class LaplaceSymbolData:
    """Coefficients of the symbol of the conformally rescaled Laplacian.

    The quadratic form Q(xi) has the coefficients a2_q = (1, 2 Re tau, |tau|^2)
    of tau; the full leading term is Q(xi) k2.  a1_1, a1_2 are the algebra
    coefficients of xi1 and xi2 in the subleading term, a0 the zeroth order.
    """

    tau: ModuliPoint
    k2: NcElement
    a1_1: NcElement
    a1_2: NcElement
    a0: NcElement

    @property
    def a2_q(self) -> tuple:
        return (1.0, 2.0 * self.tau.re, self.tau.abs2)


def trimmed_symbol_data(ls: LaplaceSymbolData, tol: float) -> LaplaceSymbolData:
    """Drop tiny coefficients from every element; a resolution knob for the
    quadrature engine (smaller windows for the expensive subleading terms)."""
    return LaplaceSymbolData(ls.tau, ls.k2.trimmed(tol), ls.a1_1.trimmed(tol),
                             ls.a1_2.trimmed(tol), ls.a0.trimmed(tol))


def laplace_symbol(cd: ConformalData) -> LaplaceSymbolData:
    """Exact coefficients built from k, its square cd.k2 and its derivations."""
    k = cd.k
    tau = cd.tau
    tre, tabs2 = tau.re, tau.abs2
    d1k = delta(1, k)
    d2k = delta(2, k)
    a1_1 = add(scale(2.0, mul(k, d1k)), scale(2.0 * tre, mul(k, d2k)))
    a1_2 = add(scale(2.0 * tabs2, mul(k, d2k)), scale(2.0 * tre, mul(k, d1k)))
    a0 = add(
        add(mul(k, delta(1, d1k)), scale(tabs2, mul(k, delta(2, d2k)))),
        scale(2.0 * tre, mul(k, delta(2, d1k))),
    )
    return LaplaceSymbolData(tau, cd.k2.trimmed(1e-14), a1_1.trimmed(1e-15),
                             a1_2.trimmed(1e-15), a0.trimmed(1e-15))


# ---------------------------------------------------------------------------
# parametrix expressions in normal form
#
# An expression is a tuple of (poly, word) terms: poly a xi-polynomial
# {(e1, e2): complex} and word an ordered tuple of Resolvent and ElementAtom
# factors.  There is one term per word, words compared by coefficient value,
# and no zero coefficient; the empty tuple is zero.

class Resolvent:
    """The factor (Q(xi) k^2 - lambda)^{-1}; lambda lives only here."""

    __slots__ = ()
    key = "B0"

    def __repr__(self):
        return "B0"


class ElementAtom:
    """Left multiplication by a fixed algebra element; its key (the
    coefficients by value, as bytes whose hash Python caches) is taken once,
    when the factor is built."""

    __slots__ = ("elem", "label", "key")

    def __init__(self, elem: NcElement, label: str = ""):
        self.elem = elem
        self.label = label
        self.key = coeff_key(elem)

    def __repr__(self):
        return self.label or "elem"


def _word_key(word):
    return tuple(f.key for f in word)


_RES = Resolvent()
B0 = (({(0, 0): 1.0 + 0.0j}, (_RES,)),)


def _poly(coeffs: dict) -> dict:
    return {m: complex(c) for m, c in coeffs.items() if c != 0.0}


def _poly_eval(poly: dict, x1, x2):
    return sum(c * (x1 ** e1) * (x2 ** e2) for (e1, e2), c in poly.items())


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, a2), ca in p.items():
        for (b1, b2), cb in q.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_derivative(poly: dict, axis: int) -> dict:
    out: dict = {}
    for (e1, e2), c in poly.items():
        e = e1 if axis == 1 else e2
        if e:
            key = (e1 - 1, e2) if axis == 1 else (e1, e2 - 1)
            out[key] = out.get(key, 0.0) + e * c
    return _poly(out)


def _q_poly(ls: LaplaceSymbolData) -> dict:
    c0, c1, c2 = ls.a2_q
    return _poly({(2, 0): c0, (1, 1): c1, (0, 2): c2})


def _merge(terms) -> tuple:
    """Sum (poly, word) terms into normal form."""
    grouped: dict = {}
    for poly, word in terms:
        acc = grouped.setdefault(_word_key(word), ({}, word))[0]
        for mono, c in poly.items():
            acc[mono] = acc.get(mono, 0.0) + c
    merged = ((_poly(acc), word) for acc, word in grouped.values())
    return tuple(t for t in merged if t[0])


def _sum(exprs) -> tuple:
    return _merge(t for e in exprs for t in e)


def _prod(*factors) -> tuple:
    """Product of expressions: words concatenate and polynomials multiply."""
    out = (({(0, 0): 1.0 + 0.0j}, ()),)
    for f in factors:
        out = _merge((_poly_mul(p, q), w + v) for p, w in out for q, v in f)
    return out


def _const(c: complex) -> tuple:
    return (({(0, 0): complex(c)}, ()),)


def _atom(elem: NcElement, label: str, poly: dict | None = None) -> tuple:
    """poly (default 1) times left multiplication by elem; zero if either is."""
    poly = _poly({(0, 0): 1.0} if poly is None else poly)
    return ((poly, (ElementAtom(elem, label),)),) if poly and elem.l1_norm() else ()


def _derive(e: tuple, dpoly, dfactor) -> tuple:
    """The one derivation: the Leibniz rule over each term, with dpoly(poly)
    the derivative of its polynomial and dfactor(f), an expression, that of
    each word factor."""
    out = []
    for poly, word in e:
        out.append((dpoly(poly), word))
        for i, f in enumerate(word):
            out.extend((_poly_mul(poly, q), word[:i] + v + word[i + 1:]) for q, v in dfactor(f))
    return _merge(out)


def xi_derivative_expr(e: tuple, axis: int, ls: LaplaceSymbolData) -> tuple:
    """Exact derivative in xi_axis; on the resolvent d_i B0 = -B0 (d_i Q) k^2 B0."""
    dq = _poly_derivative(_q_poly(ls), axis)
    dres = _prod(B0, _atom(ls.k2, "k2", {m: -c for m, c in dq.items()}), B0)
    return _derive(e, lambda p: _poly_derivative(p, axis),
                   lambda f: dres if isinstance(f, Resolvent) else ())


def delta_expr(e: tuple, axis: int, ls: LaplaceSymbolData) -> tuple:
    """Torus derivation of words of element factors: delta_j of a factor is
    delta(j, elem).  The parametrix recursion derives only the symbol terms,
    so a resolvent factor raises HeatError."""
    def rule(f):
        if isinstance(f, Resolvent):
            raise HeatError("delta_expr derives element factors only, not the resolvent B0")
        return _atom(delta(axis, f.elem), f"d{axis}({f.label})")
    return _derive(e, lambda p: {}, rule)


def symbol_term_expr(ls: LaplaceSymbolData, k: int) -> tuple:
    """The order-k part of the Laplacian symbol as an expression (without
    the -lambda of the leading term)."""
    if k == 0:
        return _atom(ls.a0, "a0")
    if k == 1:
        return _sum([_atom(ls.a1_1, "a1_1", {(1, 0): 1.0}), _atom(ls.a1_2, "a1_2", {(0, 1): 1.0})])
    if k == 2:
        return _atom(ls.k2, "k2", _q_poly(ls))
    raise HeatError("symbol order k must be 0, 1 or 2")


def _pairings(db, da, order: int):
    """The nonzero products 1/l! d^l(b_j) delta^l(a_k) of relative order
    k - 2 - j - |l| = order, as (k, l, 1/l!, d^l(b_j), delta^l(a_k))."""
    for j, dbj in enumerate(db):
        for k, dak in enumerate(da):
            for l, (f, pb) in dbj.items():
                ak = dak[l][1]
                if sum(l) == k - 2 - j - order and ak and pb:
                    yield k, l, f, pb, ak


def _expansion(ls: LaplaceSymbolData):
    """b_0, b_1, b_2, the xi-derivatives d^l(b_j) with |l| <= 2 - j for
    j < 2, and the delta-derivatives of the three symbol terms."""
    da = [_leibniz(symbol_term_expr(ls, k), delta_expr, 2, ls) for k in range(3)]
    bs, db = [B0], []
    for n in (1, 2):
        db.append(_leibniz(bs[-1], xi_derivative_expr, 2 - len(db), ls))
        bs.append(_sum(_prod(_const(-f), pb, ak, B0)
                       for _, _, f, pb, ak in _pairings(db, da, -n)))
    return bs, db, da


def parametrix_terms(ls: LaplaceSymbolData) -> tuple:
    """The second-order resolvent parametrix (b_0, b_1, b_2) in normal form,
    the expansion of the recursion
    b_n = - sum 1/(l1! l2!) d^l(b_j) delta^l(a_k) b_0 over 2+j+l1+l2-k = n."""
    bs, _, _ = _expansion(ls)
    return tuple(bs)


# ---------------------------------------------------------------------------
# the one word evaluator: the k^2 section in its eigenbasis, block by block

class _Eigenblocks:
    """The k^2 section diagonalized on one block, or on a stack of blocks of
    one size, and every element factor in that eigenbasis (stored transposed).
    In it the resolvent is the diagonal 1/(Q(xi) s_i - lambda), so a word is a
    chain of diagonal scalings and atom matrices."""

    def __init__(self, k2: np.ndarray, atoms: dict):
        self.svals, self.basis = np.linalg.eigh(k2)
        if self.svals.min() <= 0:
            raise HeatError("k^2 section is not positive definite")
        bh = np.conj(np.swapaxes(self.basis, -1, -2))
        self.atoms = {key: np.swapaxes(bh @ a @ self.basis, -1, -2) for key, a in atoms.items()}

    def apply(self, word, V: np.ndarray, rdiag: np.ndarray) -> np.ndarray:
        """Rows of V times the transposed word product; rdiag (the resolvent
        diagonal) broadcasts against V."""
        for node in reversed(word):
            V = V * rdiag if isinstance(node, Resolvent) else V @ self.atoms[node.key]
        return V


def _window_sections(ls: LaplaceSymbolData, window: BasisWindow, exprs):
    """The keys of the element factors of exprs, and the sparse window
    sections of k^2, selfadjoint and so symmetrized, and of those factors.
    Every factor maps each coupling block of their joint pattern into
    itself, so a word is evaluated block by block; an h whose support spans
    Z^2 makes the window one block."""
    atoms = {f.key: f.elem for e in exprs for _, word in e for f in word
             if isinstance(f, ElementAtom)}
    k2 = FiniteSectionOperator(window, left_mult_matrix(ls.k2, window).matrix, selfadjoint=True)
    return list(atoms), [k2.matrix, *(left_mult_matrix(a, window).matrix for a in atoms.values())]


def _window_matrices(ls: LaplaceSymbolData, window: BasisWindow, exprs, xis, lam: complex):
    """Yield each expression of exprs at each point xi of xis (expressions
    outer) and at lambda as a window matrix in the standard basis, solved on
    every coupling block, blocks of one size stacked; lambda near the
    spectrum is refused."""
    keys, sections = _window_sections(ls, window, exprs)
    stacks = [(idx, _Eigenblocks(subs[0], dict(zip(keys, subs[1:]))))
              for idx, subs in block_stacks(coupling_blocks(*sections), *sections)]
    for e in exprs:
        for xi in xis:
            x1, x2 = float(xi[0]), float(xi[1])
            q = _poly_eval(_q_poly(ls), x1, x2).real
            dist = min(float(np.min(np.abs(q * b.svals - lam))) for _, b in stacks)
            if dist < DIST_TOL:
                raise HeatError(f"lambda {lam:g} within {dist:.2e} of the section spectrum")
            vals = [(_poly_eval(poly, x1, x2), word) for poly, word in e]
            m = np.zeros((window.dim,) * 2, dtype=complex)
            for idx, b in stacks:
                rdiag = 1.0 / (q * b.svals[:, np.newaxis, :] - lam)
                eye = np.broadcast_to(np.eye(idx.shape[1]), b.basis.shape)
                total = np.zeros(b.basis.shape, dtype=complex)
                for val, word in vals:
                    if val != 0.0:
                        total += val * b.apply(word, eye, rdiag)
                bh = np.conj(np.swapaxes(b.basis, 1, 2))
                m[idx[:, :, np.newaxis], idx[:, np.newaxis, :]] = (
                    b.basis @ np.swapaxes(total, 1, 2) @ bh)
            yield m


def eval_expr(e: tuple, xi, lam: complex, w: BasisWindow,
              ls: LaplaceSymbolData) -> FiniteSectionOperator:
    """Evaluate an expression to a dense matrix at the point (xi, lambda),
    through the eigenbasis of the k^2 section on each coupling block; lambda
    within DIST_TOL of the spectrum of Q(xi) k^2 is refused."""
    return FiniteSectionOperator(w, next(_window_matrices(ls, w, (e,), (xi,), lam)))


# ---------------------------------------------------------------------------
# contour

@dataclass(frozen=True)
class ContourSpec:
    """Parabolic arc around the non-negative real axis.

    lambda(v) = alpha v^2 - beta + i gamma v with v = sinh(u) on a uniform u
    grid (double-exponential decay of the integrand), traversed from the lower
    to the upper branch so that (1/2 pi i) contour-int e^{-lambda}/(s-lambda)
    equals e^{-s} for s >= 0.  The grid ends where alpha v^2 = 45.
    """

    alpha, beta, gamma = 1.0, 1.0, 4.0  # class constants, not fields
    nodes: int = 96

    def __post_init__(self):
        if self.nodes < 8:
            raise HeatError("contour needs at least 8 nodes")

    def points(self):
        """(lambda nodes, quadrature weights) with weights absorbing
        dlambda/du, the trapezoid step and the 1/(2 pi i) prefactor."""
        U = math.asinh(math.sqrt(45.0 / self.alpha))
        u = np.linspace(-U, U, self.nodes)
        du = u[1] - u[0]
        v = np.sinh(u)
        lam = self.alpha * v * v - self.beta + 1j * self.gamma * v
        dlam = (2.0 * self.alpha * v + 1j * self.gamma) * np.cosh(u)
        wts = np.full(self.nodes, du)
        wts[0] *= 0.5
        wts[-1] *= 0.5
        return lam, wts * dlam / (2j * math.pi)


def contour_gate(contour: ContourSpec, s_max: float, tol: float = 1e-8) -> float:
    """Validate the contour calculus against e^{-s} before use: the largest
    error of its quadrature estimate of e^{-s} over samples s in [0, s_max];
    raises on failure."""
    samples = np.concatenate([[0.0], np.geomspace(1e-3, max(s_max, 1.0), 40)])
    lam, wq = contour.points()
    quad = np.sum(wq * np.exp(-lam) / (samples[:, np.newaxis] - lam), axis=1)
    err = float(np.max(np.abs(quad - np.exp(-samples))))
    if err > tol:
        raise HeatError(
            f"contour sanity gate failed: max |quad - exp| = {err:.3e} > {tol:.1e}"
        )
    return err


# ---------------------------------------------------------------------------
# heat coefficients by nested quadrature

@dataclass(frozen=True)
class HeatCoefficientResult:
    value: float
    tail: float
    contour_error: float
    imag_residual: float
    params: dict = field(default_factory=dict)


def _radial_rule(n: int, rmax: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * rmax * (x + 1.0), 0.5 * rmax * w


def heat_coefficient(n: int, ls: LaplaceSymbolData, contour: ContourSpec | None = None,
                     radial_nodes: int | None = None, rmax: float | None = None,
                     window_pad: int | None = None) -> HeatCoefficientResult:
    """Heat trace coefficient by the double integral of the parametrix trace,
    lambda over the contour and xi over the sheared polar grid.

    n = 0 integrates the bare resolvent B0, n = 2 the second parametrix term,
    built from the symbol data with coefficients of magnitude <= 1e-7
    dropped (trimmed_symbol_data; a caller wanting a coarser trim applies it
    first).  Each normal-form word is paired with the angular integral of its
    polynomial (a trigonometric polynomial, exact on the angular rule of
    ANGULAR_NODES points), taken for all radial nodes at once.  In the
    eigenbasis of k^2 only the resolvent diagonals change from node to node,
    so the radial nodes run in chunks: each word is evaluated once per chunk,
    on the stacked diagonals of all its (node, lambda) pairs, whose size
    CHUNK_BYTES bounds (a block too large for two nodes runs one node per
    chunk).  The sum runs node by node, term by term, in the order of a
    per-node loop.  The radial truncation tail of the n = 0 integrand is
    added in closed form from the spectral decay e^{-r^2 s_i} and reported.
    Words are evaluated on the vacuum's coupling block alone
    (params["block"] is its size); the radial cut, the tail and the contour
    gate read its spectrum.
    """
    if n not in (0, 2):
        raise HeatError("only the coefficients n = 0 and n = 2 are built")
    if radial_nodes is None:
        radial_nodes = 64 if n == 0 else 24
    if window_pad is None:
        window_pad = 8 if n == 0 else 4
    if n == 2:
        ls = trimmed_symbol_data(ls, 1e-7)
    terms = B0 if n == 0 else parametrix_terms(ls)[2]
    window = BasisWindow(ls.k2.support_bandwidth() + window_pad)
    keys, sections = _window_sections(ls, window, (terms,))
    pos, (k2, *subs) = vacuum_block(window, *sections)
    eig = _Eigenblocks(k2, dict(zip(keys, subs)))
    # the conjugate of the vacuum vector in the eigenbasis of its block
    vac = np.conj(eig.basis[pos])
    s = eig.svals
    smin = float(s.min())
    if rmax is None:
        rmax = math.sqrt(math.log(1.0 / TAIL_EPS) / smin)
    if contour is None:
        contour = ContourSpec()
    cerr = contour_gate(contour, s_max=float(s.max()) * rmax * rmax)
    im_tau = ls.tau.im
    params = {"radial_nodes": radial_nodes, "rmax": rmax, "window": window.bandwidth,
              "block": int(s.size), "contour_nodes": contour.nodes}
    if not terms:
        params["note"] = "second parametrix term vanishes identically"
        return HeatCoefficientResult(value=0.0, tail=0.0, contour_error=cerr,
                                     imag_residual=0.0, params=params)
    if n == 2:
        params.update(angular_nodes=ANGULAR_NODES, terms=len(terms))
    # n = 0 adds its radial tail in closed form; n = 2 bounds it by the decay scale
    w0sq = np.abs(vac) ** 2
    tail = math.pi / im_tau * float(np.sum(w0sq * np.exp(-rmax * rmax * s) / s)) if n == 0 else 0.0
    bound = tail if n == 0 else math.exp(-rmax * rmax * smin)
    if bound > TAIL_TOL:
        raise HeatError(f"radial tail {'bound' if n == 0 else 'scale'} {bound:.3e} exceeds "
                        f"tolerance {TAIL_TOL:.1e}; increase rmax")
    lam, wq = contour.points()
    rs, wr = _radial_rule(radial_nodes, rmax)
    # angular rule: xi(r, a) = r * (cos a - (Re tau / Im tau) sin a, sin a / Im tau),
    # every radial node at once: ang[t, i] is term t's angular integral at rs[i]
    angs = 2.0 * math.pi * np.arange(ANGULAR_NODES) / ANGULAR_NODES
    dir1 = np.cos(angs) - ls.tau.re / im_tau * np.sin(angs)
    dir2 = np.sin(angs) / im_tau
    w_ang = 2.0 * math.pi / ANGULAR_NODES
    x1, x2 = rs[:, np.newaxis] * dir1, rs[:, np.newaxis] * dir2
    ang = np.array([w_ang * np.sum(_poly_eval(poly, x1, x2), axis=1) for poly, _ in terms])
    live = np.abs(ang) >= 1e-300
    wlam = wq * np.exp(-lam)
    per_chunk = max(1, CHUNK_BYTES // (16 * lam.size * s.size))
    total = 0.0 + 0.0j
    for lo in range(0, radial_nodes, per_chunk):
        hi = min(lo + per_chunk, radial_nodes)
        rc = rs[lo:hi]
        # the resolvent diagonals of the chunk's nodes, node-major rows
        rdiag = (1.0 / ((rc * rc)[:, np.newaxis, np.newaxis] * s - lam[:, np.newaxis])
                 ).reshape(-1, s.size)
        # each word's vacuum expectation, one per row of rdiag
        lam_int = [np.sum(wlam * (eig.apply(word, vac, rdiag) @ vac.conj()).reshape(hi - lo, -1), 1)
                   if live[t, lo:hi].any() else None for t, (_, word) in enumerate(terms)]
        # radial node outer, term inner: the order of the per-node sum
        for i in range(lo, hi):
            for t in np.flatnonzero(live[:, i]):
                total += wr[i] * rs[i] * ang[t, i] * lam_int[t][i - lo]
    total /= im_tau
    return HeatCoefficientResult(
        value=total.real + tail, tail=tail, contour_error=cerr,
        imag_residual=abs(total.imag), params=params,
    )


# ---------------------------------------------------------------------------
# parametrix identity at fixed lambda (graded composition residual)

def parametrix_residual(ls: LaplaceSymbolData, lam: complex, window: BasisWindow) -> dict:
    """Magnitude of the graded composition of (b0+b1+b2) with the full symbol.

    For each relative order g = 0, -1, -2 the terms 1/l! d^l(b_j) delta^l(a_k)
    with k - 2 - j - |l| = g are evaluated at XI_SAMPLES and summed; at order
    0 the identity is subtracted.  Returns {order: max matrix entry}.
    """
    bs, db, da = _expansion(ls)
    db.append(_leibniz(bs[2], xi_derivative_expr, 0, ls))
    orders = {}
    for g in (0, -1, -2):
        pieces = []
        for k, l, f, pb, ak in _pairings(db, da, g):
            pieces.append(_prod(_const(f), pb, ak))
            if k == 2 and l == (0, 0):
                # leading symbol carries -lambda
                pieces.append(_prod(_const(-lam * f), pb))
        orders[g] = _sum(pieces)
    mats = _window_matrices(ls, window, orders.values(), XI_SAMPLES, lam)
    out = {}
    for g in orders:
        eye = np.eye(window.dim) if g == 0 else 0.0
        out[g] = max(float(np.max(np.abs(next(mats) - eye))) for _ in XI_SAMPLES)
    return out


# ---------------------------------------------------------------------------
# heat trace fit

@dataclass(frozen=True)
class HeatFitResult:
    b0: float
    b2: float
    guard: float
    t_window: tuple
    n_points: int
    residual_rms: float


def heat_trace(runs: Runs, ts) -> np.ndarray:
    """t * sum e^{-t lambda_j} at each t of ts: mult * e^{-t lambda} summed
    over the runs of the spectrum (a lattice spectrum repeats each value,
    the flat 801^2 box about 12 times on average), one t at a time."""
    mult = runs.mult.astype(float)
    return ts * np.array([np.sum(mult * np.exp(-t * runs.values)) for t in ts])


def heat_trace_fit(eigenvalues) -> HeatFitResult:
    """Fit t * sum e^{-t lambda_j} to b0 + b2 t + guard t^2 on small t.

    The grid is 40 geometric points from 1.02 t_min to min(0.2, 60 t_min),
    t_min = log(1/FIT_TAIL_TOL) / lambda_max.  Only t with
    e^{-t lambda_max} < FIT_TAIL_TOL are admissible (larger windows would see
    the missing spectral tail); when fewer than 3 are (lambda_max below about
    96, where the grid runs down past t_min), the fit fails loudly, as it
    does on an empty spectrum or one with no positive value.  The trace is
    heat_trace's, over the runs of the sorted spectrum or ascending Runs as
    given; Runs out of order or with a multiplicity below 1 raise.
    """
    if isinstance(eigenvalues, Runs):
        runs = eigenvalues
        if runs.mult.shape != runs.values.shape or np.any(runs.mult < 1):
            raise HeatError("heat trace fit needs run multiplicities >= 1, one per value")
        if np.any(runs.values[1:] < runs.values[:-1]):
            raise HeatError("heat trace fit needs runs in ascending order")
    else:
        runs = runs_of(ascending(eigenvalues))
    if not (runs.values.size and runs.values[-1] > 0.0):
        raise HeatError("heat trace fit needs a spectrum with a positive largest eigenvalue")
    lam_max = runs.values[-1]
    t_min = math.log(1.0 / FIT_TAIL_TOL) / lam_max
    t_grid = np.geomspace(t_min * 1.02, min(0.2, 60.0 * t_min), 40)
    admissible = t_grid[np.exp(-t_grid * lam_max) < FIT_TAIL_TOL]
    if admissible.size < 3:
        raise HeatError(
            f"no admissible t-window: need t >= {t_min:.3e}; spectrum window too small"
        )
    y = heat_trace(runs, admissible)
    design = np.stack([np.ones_like(admissible), admissible, admissible ** 2], axis=1)
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return HeatFitResult(
        b0=float(coef[0]),
        b2=float(coef[1]),
        guard=float(coef[2]),
        t_window=(float(admissible[0]), float(admissible[-1])),
        n_points=int(admissible.size),
        residual_rms=rms,
    )
