"""Seeded identity cases and the identity suite (the checks of criterion 9).

The cases are drawn here, in exactly the order in which
``acceptance._identity_suite`` draws them; the library only receives the
finished elements and symbols.  A benchmark run draws the coefficients from
its seed but the supports, symbol degrees and derivation axes from the seed
20260808, so that every seed costs the same work (drawn whole from one seed,
the cost of 15 cases varied by 1.8x between seeds).  Drawn whole from the
seed 20260808 with 200 cases per family, the worst deviations equal those of
criterion 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# mirrors acceptance.IDENTITY_TOLERANCES at tolerance scale 1
TOLERANCES = {
    "commutation": 1e-14,
    "trace_cyclicity": 1e-12,
    "integration_by_parts": 1e-12,
    "star_derivation": 1e-12,
    "leibniz": 1e-12,
    "kms": 1e-10,
    "adjoint_pairing": 1e-10,
    "composition_vs_product": 1e-12,
}

CRITERION_9_SEED = 20260808


@dataclass(frozen=True)
class IdentitySpec:
    """Size of one identity suite: cases per family and the KMS weight."""

    cases: int
    kms_band: int = 4
    kms_pad: int = 32


@dataclass
class IdentityCases:
    kms_cd: object      # conformal data of the KMS weight
    kms_right: object   # k^2 k^-2 of the KMS weight
    products: list      # (a, b, axis)
    pairings: list      # (p, a, b)
    compositions: list  # (p, q)


class _Draws:
    """Integers (supports, degrees, axes) from one generator, normals (the
    coefficients) from another; the same generator twice gives the draws of
    algebra.random_element in its order."""

    def __init__(self, structure, values):
        self.s, self.v = structure, values

    def integer(self, lo, hi) -> int:
        return int(self.s.integers(lo, hi))

    def normal(self) -> float:
        return self.v.standard_normal()


def _element(nct, d: _Draws, band, n_terms=6, scale_coeff=1.0):
    coeffs = {}
    for _ in range(n_terms):
        m = d.integer(-band, band + 1)
        n = d.integer(-band, band + 1)
        coeffs[(m, n)] = complex(d.normal(), d.normal()) * scale_coeff
    return nct.algebra.NcElement(nct.algebra.GOLDEN, band, coeffs)


def _poly(nct, d: _Draws, band, n_terms):
    key = (d.integer(0, 2), d.integer(0, 2))
    return nct.symbols.PolySymbol(nct.algebra.GOLDEN, {key: _element(nct, d, band, n_terms)})


def generate(nct, seed: int, spec: IdentitySpec, whole: bool = False) -> IdentityCases:
    """Cases with coefficients from the seed and structure from the seed
    20260808, or everything from the seed when whole is set.  The KMS weight
    is always the one the seed 20260808 draws: its cost varies by two orders
    of magnitude from seed to seed.  Its conformal data is built here, in the
    set-up, like the conformal data of a workload."""
    alg = nct.algebra
    values = np.random.default_rng(seed)
    d = _Draws(values, values) if whole else _Draws(np.random.default_rng(CRITERION_9_SEED), values)
    _element(nct, d, spec.kms_band, 4, 0.2)  # keeps the case draws aligned with criterion 9
    c9 = np.random.default_rng(CRITERION_9_SEED)
    a = _element(nct, _Draws(c9, c9), spec.kms_band, 4, 0.2)
    kms_h = alg.scale(0.5, alg.add(a, alg.adjoint(a)))
    kms_cd = alg.ConformalData.build(alg.ModuliPoint(0.0, 1.0), kms_h,
                                     pad=spec.kms_pad, trim=1e-13)
    kms_right = alg.mul(alg.mul(kms_cd.k, kms_cd.k), kms_cd.k_inv2)
    products = []
    for _ in range(spec.cases):
        a = _element(nct, d, 4)
        b = _element(nct, d, 4)
        products.append((a, b, d.integer(1, 3)))
    pairings = []
    for _ in range(spec.cases):
        p = _poly(nct, d, 2, 3)
        pairings.append((p, _element(nct, d, 3), _element(nct, d, 3)))
    compositions = [(_poly(nct, d, 1, 2), _poly(nct, d, 1, 2)) for _ in range(spec.cases)]
    return IdentityCases(kms_cd, kms_right, products, pairings, compositions)


def _max_abs(elem) -> float:
    return max((abs(c) for c in elem.coeffs.values()), default=0.0)


def worst_deviations(nct, cases: IdentityCases, lap=lambda: None) -> dict:
    """The identity checks of criterion 9 on the given cases; lap() is called
    after every case."""
    alg, gns, sym = nct.algebra, nct.gns, nct.symbols
    angle = alg.GOLDEN
    worst: dict = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), float(value))

    u = alg.make_monomial(1, 0, 1.0, angle)
    v = alg.make_monomial(0, 1, 1.0, angle)
    omega = complex(np.exp(2j * np.pi * angle.theta))
    track("commutation", _max_abs(alg.add(alg.mul(v, u), alg.scale(-omega, alg.mul(u, v)))))

    lap()
    kms_cd, kms_right = cases.kms_cd, cases.kms_right
    for a, b, j in cases.products:
        track("trace_cyclicity",
              abs(alg.trace_t(alg.mul(a, b)) - alg.trace_t(alg.mul(b, a))))
        track("integration_by_parts",
              abs(alg.trace_t(alg.mul(a, alg.delta(j, b)))
                  + alg.trace_t(alg.mul(alg.delta(j, a), b))))
        track("star_derivation",
              _max_abs(alg.add(alg.delta(j, alg.adjoint(a)), alg.adjoint(alg.delta(j, a)))))
        leib = alg.add(
            alg.delta(j, alg.mul(a, b)),
            alg.scale(-1.0, alg.add(alg.mul(alg.delta(j, a), b), alg.mul(a, alg.delta(j, b)))),
        )
        track("leibniz", _max_abs(leib))
        lhs = alg.phi(alg.mul(a, b), kms_cd)
        rhs = alg.trace_of_product(alg.mul(alg.mul(b, kms_cd.k_inv2), a), kms_right)
        track("kms", abs(lhs - rhs))
        lap()

    for p, a, b in cases.pairings:
        lhs = alg.inner_product(sym.apply_op(p, a), b)
        rhs = alg.inner_product(a, sym.apply_op(sym.adjoint_poly(p), b))
        track("adjoint_pairing", abs(lhs - rhs))
        lap()

    w = gns.BasisWindow(6)
    inner = gns.BasisWindow(2)
    cols = [w.index_of(*inner.pair_of(i)) for i in range(inner.dim)]
    for p, q in cases.compositions:
        mp = sym.finite_section_of_op(p, w).entries
        mq = sym.finite_section_of_op(q, w).entries
        mpq = sym.finite_section_of_op(sym.compose_poly(p, q), w).entries
        track("composition_vs_product", np.max(np.abs((mp @ mq)[:, cols] - mpq[:, cols])))
        lap()
    return worst
