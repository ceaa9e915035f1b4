import functools
import math

import pytest

import oracles
from geojsd import discrete
from geojsd.cli import main
from geojsd.verification import (
    SUITES,
    adaptive_simpson,
    counterexamples,
    gaussian_quadrature_oracles,
    identities,
    run_suite,
)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert adaptive_simpson(lambda x: x ** 3 - 2.0 * x, 0.0, 2.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_gaussian_mass(self):
        pdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert adaptive_simpson(pdf, -12.0, 12.0, tol=1e-10) == pytest.approx(
            1.0, abs=1e-9)

    def test_kink_integrand(self):
        assert adaptive_simpson(abs, -1.0, 2.0, tol=1e-10) == pytest.approx(
            2.5, abs=1e-9)


class TestQuadratureOracleAgainstMpmath:
    """The Simpson oracle itself is validated against mpmath quadrature."""

    @pytest.mark.parametrize("params", [
        (0.0, 1.0, 1.0, 1.0),
        (0.3, 0.7, -0.5, 1.9),
    ])
    def test_oracle_matches_mpmath(self, params):
        values = gaussian_quadrature_oracles(*params)
        assert values["kl"] == pytest.approx(
            oracles.gaussian_kl_quad(*params), abs=1e-8)
        assert values["bhattacharyya"] == pytest.approx(
            oracles.gaussian_bhattacharyya_quad(*params), abs=1e-8)
        assert values["gjsd"] == pytest.approx(
            oracles.gaussian_gjsd_quad(*params), abs=1e-8)
        assert values["gjsd_extended"] == pytest.approx(
            oracles.gaussian_gjsd_extended_quad(*params), abs=1e-8)
        assert values["tv"] == pytest.approx(
            oracles.gaussian_tv_quad(*params), abs=1e-8)


class TestSuites:
    def test_counterexamples_pass(self):
        assert all(check.passed for check in counterexamples())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent")

    def test_suite_names(self):
        assert set(SUITES) == {"counterexamples", "identities", "bounds",
                               "gaussian_oracle", "mc_convergence"}

    def test_nan_residual_fails_its_check(self, monkeypatch, capsys):
        # both sides of an identity are NaN: max(0.0, nan) is 0.0, which
        # would pass the check
        monkeypatch.setattr(discrete, "js_m", lambda *args, **kwargs: math.nan)
        failed = [c for c in identities(pairs=2) if not c.passed]
        assert "M-JSD cross-entropy decomposition" in {c.name for c in failed}
        assert all("nan" in c.detail for c in failed)
        monkeypatch.setitem(SUITES, "identities", functools.partial(identities, pairs=2))
        assert main(["verify", "identities"]) == 1
        assert "FAIL  M-JSD cross-entropy decomposition" in capsys.readouterr().out
