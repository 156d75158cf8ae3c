"""Weyl factors whose supports split the window differently, shared by the
block-versus-dense differential tests."""

import pytest

from nctorus.algebra import ConformalData, ModuliPoint, add, adjoint, make_monomial, scale

U = make_monomial(1, 0)
U2 = make_monomial(2, 0)
V = make_monomial(0, 1)


def _h_cases():
    """name -> (tau, h, blocks and largest block size at bandwidth N)."""
    return {
        "rank1": (ModuliPoint(0.0, 1.0), scale(0.4, add(U, adjoint(U))),
                  lambda N: (2 * N + 1, 2 * N + 1)),
        # support 2Z x {0}: each row splits into its even and odd m
        "parity": (ModuliPoint(0.0, 1.0), scale(0.2, add(U2, adjoint(U2))),
                   lambda N: (2 * (2 * N + 1), N + 1)),
        # support spans Z^2: one block, the dense path
        "generic": (ModuliPoint(0.3, 0.8),
                    add(scale(0.3, add(U, adjoint(U))), scale(0.2, add(V, adjoint(V)))),
                    lambda N: (1, (2 * N + 1) ** 2)),
    }


@pytest.fixture(scope="session", params=sorted(_h_cases()))
def block_case(request):
    """(conformal data, expected (block count, largest block) as a function of N)."""
    tau, h, expect = _h_cases()[request.param]
    return ConformalData.build(tau, h, pad=16), expect
