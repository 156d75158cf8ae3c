"""Acceptance criteria, one test per criterion, with shared heavy state.

Each test prints a single pass/fail line with the measured numbers so a full
run reads as a checklist.  The bandwidth-48 perturbed spectrum is computed
once for the session and shared between criteria 3, 4 and the refinement
check.
"""

import pytest

from nctorus import acceptance as acc
from nctorus.config import ExperimentConfig
from nctorus.gns import BasisWindow, hermitian_spectrum, perturbed_laplacian_matrix
from nctorus.spectral import CountingData, weyl_constant_closed_form, weyl_slope


@pytest.fixture(scope="session")
def ctx():
    return acc.AcceptanceContext()


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] criterion {result.ident}: {result.name} "
          f"({result.seconds:.1f}s) :: {result.details}")
    assert result.passed, result.details


def test_criterion_01_flat_weyl(ctx):
    _report(acc.criterion_1(ctx))


def test_criterion_02_anisotropic_weyl(ctx):
    _report(acc.criterion_2(ctx))


def test_criterion_03_perturbed_weyl(ctx):
    _report(acc.criterion_3(ctx))


def test_criterion_04_heat_three_routes(ctx):
    _report(acc.criterion_4(ctx))


def test_criterion_05_residue_anchor(ctx):
    _report(acc.criterion_5(ctx))


def test_criterion_06_dixmier_anchor(ctx):
    _report(acc.criterion_6(ctx))


def test_criterion_07_connes_trace(ctx):
    _report(acc.criterion_7(ctx))


def test_criterion_08_parametrix_identity(ctx):
    _report(acc.criterion_8(ctx))


def test_criterion_09_algebraic_invariants(ctx):
    _report(acc.criterion_9(ctx))


def test_criterion_10_cross_construction(ctx):
    _report(acc.criterion_10(ctx))


def test_monotone_refinement_of_perturbed_slope(ctx):
    """|slope - closed form| non-increasing over N in {24, 32, 48} at a fixed
    fit window (empirical refinement check; red flag if violated)."""
    cd = ctx.shared(ExperimentConfig.conformal_data, ctx.config("perturbed"))
    wc = weyl_constant_closed_form(cd)
    window = (30.0, 300.0)
    errors = []
    for N in (24, 32):
        spec = hermitian_spectrum(
            perturbed_laplacian_matrix(cd, BasisWindow(N))
        ).eigenvalues
        fit = weyl_slope(CountingData(spec, N), fit_window=window)
        errors.append(abs(fit.slope - wc.slope))
    fit48 = weyl_slope(CountingData(ctx.perturbed_spectrum.eigenvalues, ctx.base.bandwidth),
                       fit_window=window)
    errors.append(abs(fit48.slope - wc.slope))
    print("\nrefinement errors over N=24,32,48:", errors)
    assert errors[1] <= errors[0] + 1e-12
    assert errors[2] <= errors[1] + 1e-12
