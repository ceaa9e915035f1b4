import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geojsd import (
    BITS,
    DiscreteDensity,
    EstimatorConfig,
    ExpFamilyDensity,
    GaussianParams,
    LogBase,
    MeanSpec,
    bhattacharyya_gaussian,
    chernoff,
    discrete,
    estimate,
    gaussian,
    gaussian_family,
    js,
    js_m_extended,
    kl_between_mixtures,
    kl_gaussian,
    natural_flat,
)
from geojsd.cli import _ROUTES, main
from test_cold_import import geojsd_modules_loaded


@pytest.fixture
def discrete_files(tmp_path):
    p1 = tmp_path / "p1.txt"
    p2 = tmp_path / "p2.txt"
    p1.write_text("# two atoms\n0.5 0.5\n")
    p2.write_text("0.25\n0.75\n")
    return str(p1), str(p2)


@pytest.fixture
def gaussian_files(tmp_path):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]]}))
    g2.write_text(json.dumps({"mu": [1.0], "sigma": [[1.0]]}))
    return str(g1), str(g2)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseMean:
    def test_descriptors(self):
        assert MeanSpec.parse("arithmetic", 0.3) == MeanSpec.arithmetic(0.3)
        assert MeanSpec.parse("power:-2", 0.5).gamma == -2.0
        assert MeanSpec.parse("quasi:log", 0.5) == MeanSpec.geometric(0.5)
        assert MeanSpec.parse("quasi:power:3", 0.5).gamma == 3.0
        with pytest.raises(ValueError):
            MeanSpec.parse("median", 0.5)

    def test_non_finite_power_exponent_is_usage_error(self, capsys,
                                                      discrete_files):
        p1, p2 = discrete_files
        code, out, err = run_cli(capsys, "compute", "--div", "js_m",
                                 "--mean", "power:nan", "--p1", p1, "--p2", p2)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: power mean exponent gamma must be finite, got nan"]

    @pytest.mark.parametrize("div", ["js", "kl_mixtures"])
    def test_bad_mean2_is_usage_error_on_every_route(self, capsys,
                                                     discrete_files, div):
        p1, p2 = discrete_files
        code, out, err = run_cli(capsys, "compute", "--div", div,
                                 "--mean2", "median", "--p1", p1, "--p2", p2)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: unknown mean descriptor 'median'"]


class TestCompute:
    def test_json_vector_input(self, capsys, tmp_path):
        p1 = tmp_path / "p1.json"
        p2 = tmp_path / "p2.json"
        p1.write_text("[0.5, 0.5]")
        p2.write_text("[0.25, 0.75]")
        code, out, _ = run_cli(capsys, "compute", "--div", "tv",
                               "--p1", str(p1), "--p2", str(p2))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-15)

    def test_js(self, capsys, discrete_files):
        p1, p2 = discrete_files
        code, out, _ = run_cli(capsys, "compute", "--div", "js",
                               "--p1", p1, "--p2", p2)
        assert code == 0
        payload = json.loads(out)
        expected = js(DiscreteDensity.probability([0.5, 0.5]),
                      DiscreteDensity.probability([0.25, 0.75]))
        assert payload["value"] == pytest.approx(expected, abs=1e-15)
        assert payload["base"] == "nats"
        assert payload["method"] == "exact"

    def test_js_m_same_density_is_zero(self, capsys, discrete_files):
        p1, _ = discrete_files
        code, out, _ = run_cli(capsys, "compute", "--div", "js_m",
                               "--mean", "geometric", "--p1", p1, "--p2", p1)
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_tv_gaussian_near_equal_variances(self, capsys, tmp_path):
        # the raw-coordinate crossover quadratic had no real roots here (exit 3)
        files = []
        for name, variance in (("g1.json", 0.947736715121185),
                               ("g2.json", 0.9477374869688788)):
            files.append(tmp_path / name)
            files[-1].write_text(json.dumps({"mu": [2689960.129068232],
                                             "sigma": [[variance]]}))
        code, out, _ = run_cli(capsys, "compute", "--div", "tv", "--gaussian",
                               "--p1", str(files[0]), "--p2", str(files[1]))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.9706366405e-7,
                                                         rel=1e-8)

    def test_gjsd_gaussian_closed_form(self, capsys, gaussian_files):
        g1, g2 = gaussian_files
        code, out, _ = run_cli(capsys, "compute", "--div", "gjsd",
                               "--gaussian", "--p1", g1, "--p2", g2)
        assert code == 0
        payload = json.loads(out)
        # jeffreys/4 - bhattacharyya = 1/4 - 1/8
        assert payload["value"] == pytest.approx(0.125, abs=1e-12)
        assert payload["method"] == "closed-form"

    @pytest.mark.parametrize("mean", ["geometric", "quasi:power:0",
                                      "quasi:power:1e-12"])
    def test_quasi_power_near_zero_is_geometric(self, capsys, tmp_path, mean):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.5 0.5\n")
        b.write_text("0.3 0.7\n")
        code, out, _ = run_cli(capsys, "compute", "--div", "js_m", "--mean",
                               mean, "--p1", str(a), "--p2", str(b))
        assert code == 0
        # 2 ulp from its 50-digit value, 0.02104555528851553
        assert json.loads(out)["value"] == 0.021045555288515524

    def test_gaussian_quasi_power_takes_the_closed_form(self, capsys, tmp_path):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        g1.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]]}))
        g2.write_text(json.dumps({"mu": [1.0], "sigma": [[2.0]]}))
        code, out, _ = run_cli(capsys, "compute", "--gaussian", "--div", "js_m",
                               "--mean", "quasi:power:1e-12",
                               "--p1", str(g1), "--p2", str(g2))
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.13722090775257081
        assert payload["method"] == "closed-form"

    def test_chernoff_reports_maximizer(self, capsys, discrete_files):
        p1, p2 = discrete_files
        code, out, _ = run_cli(capsys, "compute", "--div", "chernoff",
                               "--p1", p1, "--p2", p2)
        assert code == 0
        payload = json.loads(out)
        value, alpha_star = chernoff(DiscreteDensity.probability([0.5, 0.5]),
                                     DiscreteDensity.probability([0.25, 0.75]))
        assert payload["value"] == pytest.approx(value, abs=1e-12)
        assert payload["alpha_star"] == pytest.approx(alpha_star, abs=1e-9)

    def test_bits_base(self, capsys, discrete_files):
        p1, p2 = discrete_files
        _, out_nats, _ = run_cli(capsys, "compute", "--div", "kl",
                                 "--p1", p1, "--p2", p2)
        _, out_bits, _ = run_cli(capsys, "compute", "--div", "kl",
                                 "--p1", p1, "--p2", p2, "--base", "bits")
        nats = json.loads(out_nats)["value"]
        bits = json.loads(out_bits)["value"]
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    def test_kl_mixtures(self, capsys, discrete_files):
        p1, p2 = discrete_files
        code, out, _ = run_cli(capsys, "compute", "--div", "kl_mixtures",
                               "--mean", "arithmetic", "--mean2", "geometric",
                               "--p1", p1, "--p2", p2)
        assert code == 0
        expected = kl_between_mixtures(
            DiscreteDensity.probability([0.5, 0.5]),
            DiscreteDensity.probability([0.25, 0.75]),
            MeanSpec.arithmetic(), MeanSpec.geometric())
        assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-15)

    def test_gamma_gaussian_near_kl(self, capsys, gaussian_files):
        g1, g2 = gaussian_files
        code, out, _ = run_cli(capsys, "compute", "--div", "gamma",
                               "--gaussian", "--p1", g1, "--p2", g2,
                               "--gamma", "0.001")
        assert code == 0
        value = json.loads(out)["value"]
        assert value == pytest.approx(0.5, abs=2e-3)

    def test_js_gaussian_monte_carlo(self, capsys, gaussian_files):
        g1, g2 = gaussian_files
        code, out, _ = run_cli(capsys, "compute", "--div", "js", "--gaussian",
                               "--p1", g1, "--p2", g2,
                               "--samples", "200000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "monte-carlo"
        assert payload["value"] == pytest.approx(0.1113, abs=0.01)
        assert payload["std_error"] > 0.0

    def test_extended_divergences_accept_unnormalized_inputs(self, capsys,
                                                             tmp_path):
        q1 = tmp_path / "q1.txt"
        q2 = tmp_path / "q2.txt"
        q1.write_text("0.6 0.9\n")
        q2.write_text("0.3 1.2\n")
        for div in ("kl_plus", "js_m_plus"):
            code, out, _ = run_cli(capsys, "compute", "--div", div,
                                   "--p1", str(q1), "--p2", str(q2))
            assert code == 0
            assert json.loads(out)["value"] > 0.0
        expected = js_m_extended(DiscreteDensity.positive([0.6, 0.9]),
                                 DiscreteDensity.positive([0.3, 1.2]),
                                 MeanSpec.geometric())
        code, out, _ = run_cli(capsys, "compute", "--div", "js_m_plus",
                               "--mean", "geometric",
                               "--p1", str(q1), "--p2", str(q2))
        assert json.loads(out)["value"] == pytest.approx(expected, abs=1e-15)

    def test_deterministic_output(self, capsys, gaussian_files):
        g1, g2 = gaussian_files
        argv = ("compute", "--div", "js_m_plus", "--mean", "power:2",
                "--gaussian", "--p1", g1, "--p2", g2,
                "--samples", "50000", "--seed", "21")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_env_seed(self, capsys, gaussian_files, monkeypatch):
        # GEOJSD_SEED must act as the default seed
        g1, g2 = gaussian_files
        monkeypatch.setenv("GEOJSD_SEED", "77")
        import importlib

        import geojsd.cli as cli_module
        importlib.reload(cli_module)
        code = cli_module.main(["compute", "--div", "js", "--gaussian",
                                "--p1", g1, "--p2", g2, "--samples", "20000"])
        out_env = capsys.readouterr().out
        assert code == 0
        code = cli_module.main(["compute", "--div", "js", "--gaussian",
                                "--p1", g1, "--p2", g2, "--samples", "20000",
                                "--seed", "77"])
        out_explicit = capsys.readouterr().out
        assert out_env == out_explicit
        monkeypatch.delenv("GEOJSD_SEED")
        importlib.reload(cli_module)


class TestExitCodes:
    def test_malformed_env_seed_is_usage_error(self, capsys, gaussian_files,
                                               monkeypatch):
        g1, g2 = gaussian_files
        argv = ["compute", "--div", "js", "--gaussian", "--p1", g1,
                "--p2", g2, "--samples", "1000"]
        monkeypatch.setenv("GEOJSD_SEED", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("invalid int value: 'abc'")
        # an explicit --seed does not read the malformed default
        assert main(argv + ["--seed", "5"]) == 0
        capsys.readouterr()

    def test_missing_file_is_usage_error(self, capsys, discrete_files):
        p1, _ = discrete_files
        code, _, err = run_cli(capsys, "compute", "--div", "kl",
                               "--p1", p1, "--p2", "/does/not/exist")
        assert code == 2
        assert "error" in err

    def test_disjoint_support_is_math_error(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 0\n")
        b.write_text("0 1\n")
        code, _, err = run_cli(capsys, "compute", "--div", "js_m",
                               "--mean", "geometric",
                               "--p1", str(a), "--p2", str(b))
        assert code == 3
        assert "disjoint" in err

    @pytest.mark.parametrize("div", ["gamma", "js_m_gamma"])
    def test_gamma_support_size_mismatch_is_usage_error(self, capsys, tmp_path,
                                                        div):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.25 0.25 0.25 0.25\n")
        b.write_text("0.2 0.3 0.5\n")
        code, out, err = run_cli(capsys, "compute", "--div", div,
                                 "--p1", str(a), "--p2", str(b))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: support sizes differ: 4 vs 3"]

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
    @pytest.mark.parametrize("div", ["gamma", "js_m_gamma"])
    @pytest.mark.parametrize("gaussian", [False, True])
    def test_gamma_not_positive_finite_is_usage_error(self, capsys,
                                                      discrete_files,
                                                      gaussian_files, gaussian,
                                                      div, gamma):
        # argparse reads nan and inf as floats; neither is a usable gamma
        p1, p2 = gaussian_files if gaussian else discrete_files
        code, out, err = run_cli(capsys, "compute", "--div", div,
                                 "--p1", p1, "--p2", p2, f"--gamma={gamma}",
                                 *(["--gaussian"] if gaussian else []))
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: gamma must be positive and finite"]

    def test_js_m_gamma_disjoint_support_is_math_error(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 0\n")
        b.write_text("0 1\n")
        code, out, err = run_cli(capsys, "compute", "--div", "js_m_gamma",
                                 "--p1", str(a), "--p2", str(b))
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "error: mixture normalizer is zero: disjoint supports"]

    def test_negative_power_mean_takes_the_zero_limit(self, capsys, tmp_path):
        # a zero weight sends the power:-1 mixture to 0 there: an in-band
        # +inf, as with --mean min, not an error
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1\n")
        b.write_text("0.5 0.5\n")
        for mean in ("power:-1", "min"):
            code, out, _ = run_cli(capsys, "compute", "--div", "js_m",
                                   "--mean", mean, "--p1", str(a), "--p2", str(b))
            assert code == 0
            assert json.loads(out)["value"] == math.inf

    def test_power_mean_of_huge_masses_stays_finite(self, capsys, tmp_path):
        # the direct form (0.5*a**2 + 0.5*b**2)**(1/2) overflows at b = 1e300
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 1e300\n")
        b.write_text("1e300 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "compute", "--div", "js_m_plus",
                                     "--mean", "power:2", "--p1", str(a),
                                     "--p2", str(b))
        assert code == 0
        assert err == ""
        assert math.isfinite(json.loads(out)["value"])

    @pytest.mark.parametrize("tol", ["0", "nan", "inf", "-inf"])
    def test_bad_chernoff_tol_is_usage_error(self, capsys, discrete_files, tol):
        p1, p2 = discrete_files
        code, out, err = run_cli(capsys, "compute", "--div", "chernoff",
                                 "--p1", p1, "--p2", p2, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: tol must be positive"]

    def test_bad_mass_is_usage_error(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("0.5 0.6\n")
        code, _, _ = run_cli(capsys, "compute", "--div", "js",
                             "--p1", str(a), "--p2", str(a))
        assert code == 2

    def test_json_values_that_are_not_numbers_are_usage_errors(self, capsys,
                                                               tmp_path):
        # booleans and numeric strings were taken as numbers; objects and
        # ints past the float range ended in tracebacks
        density = tmp_path / "p.json"
        for payload in ([{"a": 1}], ["0.5", "0.5"], [True, False],
                        [0.5, [0.5]], [10 ** 400, 1]):
            density.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "compute", "--div", "js",
                                     "--p1", str(density), "--p2", str(density))
            assert (code, out) == (2, "")
            assert err.splitlines() == [
                f"error: {density}: weights must be an array of numbers"]
        g = tmp_path / "g.json"
        for key, value in (("mu", [{"a": 1}]), ("mu", [True]), ("mu", "0"),
                           ("sigma", [[None]]), ("sigma", [[1.0], []])):
            g.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]], key: value}))
            code, out, err = run_cli(capsys, "compute", "--div", "kl",
                                     "--gaussian", "--p1", str(g), "--p2", str(g))
            assert (code, out) == (2, "")
            assert err.splitlines() == [
                f"error: {g}: '{key}' must be a number or an array of numbers"]

    def test_multivariate_tv_rejected(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"mu": [0.0, 0.0],
                                 "sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        code, _, _ = run_cli(capsys, "compute", "--div", "tv", "--gaussian",
                             "--p1", str(g), "--p2", str(g))
        assert code == 2

    @pytest.mark.parametrize("div, extra", [
        ("kl", []), ("gjsd", []), ("tv", []), ("gamma", []),
        ("js_m_gamma", ["--mean", "power:0.5"]), ("js", ["--samples", "1000"]),
    ])
    def test_gaussian_dimension_mismatch_is_usage_error(self, capsys, tmp_path,
                                                        div, extra):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        g1.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]]}))
        g2.write_text(json.dumps({"mu": [0.0, 0.0],
                                  "sigma": [[1.0, 0.0], [0.0, 1.0]]}))
        code, out, err = run_cli(capsys, "compute", "--div", div, "--gaussian",
                                 "--p1", str(g1), "--p2", str(g2), *extra)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: dimension mismatch: 1 vs 2"]

    @pytest.mark.parametrize("payload, message", [
        ({"mu": [[0.0]], "sigma": [[1.0]]}, "mu must be a vector"),
        ({"mu": [0.0, 0.0], "sigma": [[1.0, 0.0]]}, "sigma must be a square matrix"),
        ({"mu": [0.0, 0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
         "mu and sigma dimensions do not match"),
    ])
    def test_gaussian_of_wrong_shape_is_usage_error(self, capsys, tmp_path,
                                                    gaussian_files, payload,
                                                    message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "compute", "--div", "gjsd", "--gaussian",
                                 "--p1", str(bad), "--p2", gaussian_files[1])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_is_usage_error(self, capsys, gaussian_files,
                                              workers):
        g1, g2 = gaussian_files
        code, out, err = run_cli(capsys, "compute", "--div", "js", "--gaussian",
                                 "--p1", g1, "--p2", g2, "--samples", "1000",
                                 "--workers", workers)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --workers must be at least 1"]

    def test_sample_count_above_the_cap_is_usage_error(self, capsys, tmp_path):
        # refused before the input files are read, so no sampling starts:
        # these paths do not exist
        missing = str(tmp_path / "missing.json")
        for samples in ("1000000001", str(10 ** 300)):
            code, out, err = run_cli(capsys, "compute", "--div", "js", "--gaussian",
                                     "--p1", missing, "--p2", missing,
                                     "--samples", samples)
            assert code == 2
            assert out == ""
            assert err.splitlines() == ["error: --samples must be at most 1000000000"]

    @pytest.mark.parametrize("depth", [900, 100_000])
    @pytest.mark.parametrize("entry", ["discrete", "gaussian", "gaussian-mu", "sweep"])
    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, entry, depth):
        # past the parser's recursion limit (100,000) or only past the array
        # reader's (900): one error line either way, never a RecursionError
        nested = "[" * depth + "]" * depth
        path = tmp_path / "nested.json"
        if entry == "gaussian-mu":
            path.write_text('{"mu": ' + nested + ', "sigma": [[1.0]]}')
        else:
            path.write_text(nested)
        valid = tmp_path / "valid.json"
        if entry == "sweep":
            argv = ["sweep", str(path)]
        elif entry == "discrete":
            valid.write_text("[0.5, 0.5]")
            argv = ["compute", "--div", "js", "--p1", str(path), "--p2", str(valid)]
        else:
            valid.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]]}))
            argv = ["compute", "--div", "kl", "--gaussian", "--p1", str(path),
                    "--p2", str(valid)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if depth == 100_000 and entry != "gaussian-mu":
            assert err.splitlines() == [f"error: {path}: JSON nested too deeply"]

    def test_monte_carlo_extended_in_bits_is_usage_error(self, capsys,
                                                         gaussian_files):
        # one estimate sums the log and mass terms; only the log part may
        # change with the base
        g1, g2 = gaussian_files
        code, out, err = run_cli(capsys, "compute", "--div", "js_m_plus",
                                 "--mean", "power:0.5", "--gaussian",
                                 "--p1", g1, "--p2", g2, "--samples", "1000",
                                 "--base", "bits")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: Monte Carlo extended divergences are reported in nats"]

    def test_unknown_divergence_is_usage_error(self, capsys, discrete_files):
        p1, p2 = discrete_files
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--div", "wasserstein", "--p1", p1, "--p2", p2])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestList:
    def test_lists_each_divergence_without_loading_a_route_module(self):
        out, loaded = geojsd_modules_loaded("-m", "geojsd", "list")
        # columns are at least two spaces apart
        header, *rows = (re.split(r"\s{2,}", line) for line in out.splitlines())
        assert header == ["div", "discrete inputs", "gaussian inputs"]
        assert rows == [[div, "any total mass" if unnormalized else "normalized",
                         "no" if gaussian_route is None else "yes"]
                        for div, (unnormalized, _, gaussian_route) in _ROUTES.items()]
        assert not {"geojsd.estimate", "geojsd.expfam", "geojsd.gaussian",
                    "geojsd.verification"} & set(loaded)


class TestVerify:
    def test_counterexamples_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counterexamples")
        assert code == 0
        assert "PASS" in out
        assert "0 failed" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counterexamples", "--json")
        assert code == 0
        report = json.loads(out)
        assert len(report) == 3
        assert all(entry["passed"] for entry in report)

    def test_json_report_with_residual_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "gaussian_oracle", "--json")
        assert code == 0
        report = json.loads(out)
        assert report
        assert all(entry["passed"] is True for entry in report)


class TestSweep:
    def test_empty_grid_header_only(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "gamma", "values": [],
            "inputs": {"kind": "discrete", "p1": [0.5, 0.5],
                       "p2": [0.25, 0.75]},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        assert out.splitlines() == ["parameter,value,std_error,oracle,abs_error"]

    def test_gamma_sweep_monotone(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "gamma",
            "values": [1e-2, 1e-3, 1e-4],
            "target": "gamma_divergence",
            "inputs": {"kind": "gaussian",
                       "p1": {"mu": [0.0], "sigma": [[1.0]]},
                       "p2": {"mu": [1.0], "sigma": [[2.0]]}},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        errors = [float(line.split(",")[4]) for line in lines[1:]]
        assert errors[0] > errors[1] > errors[2]

    def test_samples_sweep_stderr_shrinks(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "samples",
            "values": [10_000, 40_000, 160_000],
            "target": "estimate_z",
            "mean": "geometric",
            "inputs": {"kind": "gaussian",
                       "p1": {"mu": [0.0], "sigma": [[1.0]]},
                       "p2": {"mu": [1.0], "sigma": [[1.0]]}},
            "estimator": {"seed": 17},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        lines = out.strip().splitlines()[1:]
        stderrs = [float(line.split(",")[2]) for line in lines]
        # 4x samples about halves the standard error
        assert stderrs[1] / stderrs[0] == pytest.approx(0.5, rel=0.2)
        assert stderrs[2] / stderrs[1] == pytest.approx(0.5, rel=0.2)
        oracle = float(lines[0].split(",")[3])
        assert oracle == pytest.approx(math.exp(-0.125), rel=1e-10)

    def test_alpha_sweep_bhattacharyya(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "alpha",
            "values": [0.25, 0.5, 0.75],
            "target": "bhattacharyya",
            "inputs": {"kind": "discrete", "p1": [0.5, 0.5],
                       "p2": [0.25, 0.75]},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        lines = out.strip().splitlines()[1:]
        for line in lines:
            abs_error = float(line.split(",")[4])
            assert abs_error < 1e-10

    def test_gaussian_dimension_mismatch_is_usage_error(self, capsys, tmp_path):
        # an input error leaves stdout empty, with no CSV header
        spec = tmp_path / "sweep.json"
        mismatch = {"kind": "gaussian",
                    "p1": {"mu": [0.0], "sigma": [[1.0]]},
                    "p2": {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}}
        for inputs, message in (
                (mismatch, "error: dimension mismatch: 1 vs 2"),
                ({**mismatch, "kind": "poisson"},
                 "error: unknown input kind 'poisson'")):
            spec.write_text(json.dumps({
                "parameter": "gamma", "values": [1e-2],
                "target": "gamma_divergence", "inputs": inputs,
            }))
            code, out, err = run_cli(capsys, "sweep", str(spec))
            assert code == 2
            assert out == ""
            assert err.splitlines() == [message]

    def test_skewed_geometric_extended_oracle(self, capsys, tmp_path):
        # the oracle is gjsd(alpha, 1/2) + B_alpha + exp(-B_alpha) - 1; the
        # balanced extended G-JSD (alpha = 1/2) reads 0.2893 on this pair
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "samples", "values": [400_000],
            "target": "estimate_js_m_extended",
            "mean": "geometric", "alpha": 0.2,
            "inputs": {"kind": "gaussian",
                       "p1": {"mu": [0.0], "sigma": [[1.0]]},
                       "p2": {"mu": [1.5], "sigma": [[2.0]]}},
            "estimator": {"seed": 3},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        _, _, std_error, oracle, abs_error = out.splitlines()[1].split(",")
        assert float(oracle) == pytest.approx(0.233581, abs=1e-6)
        assert float(abs_error) <= 4.0 * float(std_error)

    def test_spec_errors_leave_stdout_empty(self, capsys, tmp_path):
        # the spec is read and every row computed before the CSV header is
        # written; none of these may end in a traceback
        spec = tmp_path / "sweep.json"
        inputs = {"kind": "discrete", "p1": [0.5, 0.5], "p2": [0.25, 0.75]}
        base = {"parameter": "gamma", "values": [1e-2], "inputs": inputs}
        for payload, message in (
                ({**base, "target": "nope"}, "error: unknown sweep target 'nope'"),
                ({**base, "target": "estimate_z", "mean": "median"},
                 "error: unknown mean descriptor 'median'"),
                ({**base, "parameter": "alpha", "values": [0.3]},
                 "error: sweep target 'gamma_divergence' has no alpha"),
                ({**base, "values": [None]},
                 "error: sweep spec 'values' must be a list of numbers"),
                ([], "error: sweep spec must be a JSON object"),
                ({**base, "estimator": []},
                 "error: sweep spec 'estimator' must be a JSON object"),
                ({**base, "mean": 5},
                 "error: mean descriptor must be a string, got 5"),
                ({**base, "values": [math.nan]},
                 "error: sweep spec 'values' must be finite"),
                ({**base, "values": [1e-2, math.inf]},
                 "error: sweep spec 'values' must be finite"),
                ({**base, "alpha": []}, "error: sweep spec 'alpha' must be a number"),
                ({**base, "estimator": {"samples": []}},
                 "error: sweep spec 'estimator.samples' must be a whole number"),
                ({**base, "estimator": {"seed": 2 ** 64}},
                 "error: seed must be a 64-bit unsigned integer"),
                ({**base, "values": [True, 0.1]},
                 "error: sweep spec 'values' must be a list of numbers"),
                ({**base, "parameter": "samples", "values": [0]},
                 "error: samples must be >= 1"),
                ({**base, "values": [-1]}, "error: gamma must be positive and finite"),
                ({**base, "parameter": "alpha", "values": [1.5],
                  "target": "bhattacharyya"},
                 "error: alpha must lie in (0, 1), got 1.5"),
                ({**base, "inputs": {**inputs, "p1": {"a": 1}}},
                 "error: sweep inputs 'p1' must be an array of numbers")):
            spec.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "sweep", str(spec))
            assert code == 2
            assert out == ""
            assert err.splitlines() == [message]

    def test_sample_counts_are_whole_and_capped(self, capsys, tmp_path):
        # refused while the spec is read: no row of the refused size runs
        spec = tmp_path / "sweep.json"
        inputs = {"kind": "gaussian", "p1": {"mu": [0.0], "sigma": [[1.0]]},
                  "p2": {"mu": [1.0], "sigma": [[1.0]]}}
        base = {"parameter": "samples", "target": "estimate_z", "inputs": inputs}
        whole = "error: sweep spec 'values' must be a list of whole numbers"
        for payload, message in (
                ({**base, "values": [100, 2.5]}, whole),
                ({**base, "values": [math.inf]}, whole),
                ({**base, "values": [1e300]},
                 "error: sweep spec 'values' must be at most 1000000000"),
                ({**base, "values": [10 ** 400]},
                 "error: sweep spec 'values' must be at most 1000000000"),
                ({**base, "values": [100], "estimator": {"samples": 1e300}},
                 "error: sweep spec 'estimator.samples' must be at most 1000000000"),
                ({**base, "values": [100], "estimator": {"chunk_size": 2.5}},
                 "error: sweep spec 'estimator.chunk_size' must be a whole number"),
                ({**base, "parameter": "gamma", "target": "gamma_divergence",
                  "values": [1e-2], "estimator": {"samples": 10 ** 10}},
                 "error: sweep spec 'estimator.samples' must be at most 1000000000")):
            spec.write_text(json.dumps(payload))
            code, out, err = run_cli(capsys, "sweep", str(spec))
            assert code == 2
            assert out == ""
            assert err.splitlines() == [message]

    def test_alpha_grid_reaches_the_mean(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "parameter": "alpha", "values": [0.2, 0.8],
            "target": "estimate_z", "mean": "geometric",
            "inputs": {"kind": "gaussian",
                       "p1": {"mu": [0.0], "sigma": [[1.0]]},
                       "p2": {"mu": [1.5], "sigma": [[2.0]]}},
            "estimator": {"samples": 200_000, "seed": 3},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 2 and rows[0][1:] != rows[1][1:]
        g1 = gaussian.GaussianParams.univariate(0.0, 1.0)
        g2 = gaussian.GaussianParams.univariate(1.5, 2.0)
        for alpha, value, std_error, oracle, _ in rows:
            z = math.exp(-bhattacharyya_gaussian(g1, g2, float(alpha)))
            assert float(oracle) == pytest.approx(z, rel=1e-11)
            assert abs(float(value) - z) <= 6.0 * float(std_error)

    def test_zero_weight_leaves_the_bhattacharyya_oracle_empty(self, capsys,
                                                               tmp_path):
        # the categorical embedding needs positive weights; the value does not
        spec = tmp_path / "sweep.json"
        p1, p2 = [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]
        spec.write_text(json.dumps({
            "parameter": "alpha", "values": [0.3], "target": "bhattacharyya",
            "inputs": {"kind": "discrete", "p1": p1, "p2": p2},
        }))
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        expected = discrete.bhattacharyya(DiscreteDensity.probability(p1),
                                          DiscreteDensity.probability(p2), 0.3)
        assert out.splitlines()[1:] == [f"0.3,{expected:.12g},,,"]

    def test_bad_spec_is_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"parameter": "frequency", "values": [1]}))
        code, _, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 2


class TestExtendedBits:
    """Extended divergences rescale only their logarithmic part with the base."""

    def test_gaussian_closed_form_matches_discretisation(self, capsys,
                                                         tmp_path):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        g1.write_text(json.dumps({"mu": [0.0], "sigma": [[1.0]]}))
        g2.write_text(json.dumps({"mu": [1.5], "sigma": [[2.0]]}))
        # the same pair on a fine grid, through the discrete sums
        x = np.linspace(-14.0, 15.5, 20_001)
        w1 = np.exp(-0.5 * x**2)
        w2 = np.exp(-0.25 * (x - 1.5) ** 2)
        p1 = DiscreteDensity.probability(w1 / w1.sum())
        p2 = DiscreteDensity.probability(w2 / w2.sum())
        for base in ("nats", "bits"):
            reference = js_m_extended(p1, p2, MeanSpec.geometric(),
                                      base=LogBase(base))
            for div in ("gjsd_plus", "js_m_plus"):
                code, out, _ = run_cli(capsys, "compute", "--div", div,
                                       "--gaussian", "--p1", str(g1),
                                       "--p2", str(g2), "--base", base)
                assert code == 0
                assert json.loads(out)["value"] == pytest.approx(reference,
                                                                 abs=1e-9)
        # jeffreys/(4 ln 2) + BC - 1, not (jeffreys/4 + BC - 1)/ln 2
        assert reference == pytest.approx(0.503779, abs=1e-6)


# ---------------------------------------------------------------------------
# every compute route against the library call it makes
# ---------------------------------------------------------------------------

W1, W2 = [0.2, 0.5, 0.3], [0.4, 0.4, 0.2]          # normalized inputs
U1, U2 = [0.6, 0.9, 0.3], [0.3, 1.2, 0.1]          # unnormalized inputs
N1 = {"mu": [0.0], "sigma": [[1.0]]}
N2 = {"mu": [1.5], "sigma": [[2.0]]}
GEO, ARITH, POW = (MeanSpec.geometric(), MeanSpec.arithmetic(),
                   MeanSpec.power(0.5))
MC = ["--samples", "2000", "--seed", "3"]
CFG = EstimatorConfig(samples=2000, seed=3, chunk_size=1 << 16)


def res(value, base, method, **extra):
    return {"value": value, "base": None if base is None else base.value,
            "method": method, **extra}


def expfam_pair(g, h):
    fam = gaussian_family(g.dim)
    return (ExpFamilyDensity(fam, natural_flat(g)),
            ExpFamilyDensity(fam, natural_flat(h)))


def monte_carlo(g, h, mean, b):
    value, stderr = estimate.estimate_js_m_extended(
        estimate.gaussian_sampled(g), estimate.gaussian_sampled(h), mean, CFG)
    return res(b.from_nats(value), b, "monte-carlo",
               std_error=b.from_nats(stderr))


def chernoff_exact(p, q, b):
    value, alpha_star = discrete.chernoff(p, q, 1e-12, b)
    return res(value, b, "exact", alpha_star=alpha_star)


def gjsd_plus_gaussian(g, h, b):
    if b is BITS:  # only the logarithmic part, jeffreys/4, rescales
        value = (b.from_nats(gaussian.jeffreys_gaussian(g, h) / 4.0)
                 + math.expm1(-gaussian.bhattacharyya_gaussian(g, h)))
    else:
        value = gaussian.gjsd_extended_gaussian(g, h)
    return res(value, b, "closed-form")


def quadrature(g, h, b):
    sd = max(1.0, math.sqrt(2.0))
    value = estimate.js_m_gamma(
        estimate.gaussian_sampled(g), estimate.gaussian_sampled(h), POW, 1e-3,
        "quadrature", support=(0.0 - 13.0 * sd, 1.5 + 13.0 * sd))
    return res(b.from_nats(value), b, "quadrature")


# (kind, div, extra argv, unnormalized inputs, the library call)
ROUTE_CASES = [
    ("discrete", "kl", [], False,
     lambda p, q, b: res(discrete.kl(p, q, b), b, "exact")),
    ("discrete", "kl_plus", [], True,
     lambda p, q, b: res(discrete.kl_extended(p, q, b), b, "exact")),
    ("discrete", "js", [], False,
     lambda p, q, b: res(discrete.js(p, q, b), b, "exact")),
    ("discrete", "js_m", ["--mean", "power:0.5"], False,
     lambda p, q, b: res(discrete.js_m(p, q, POW, 0.5, b), b, "exact")),
    ("discrete", "js_m_plus", ["--mean", "power:0.5"], True,
     lambda p, q, b: res(discrete.js_m_extended(p, q, POW, 0.5, b), b,
                         "exact")),
    ("discrete", "jeffreys", [], False,
     lambda p, q, b: res(discrete.jeffreys(p, q, b), b, "exact")),
    ("discrete", "bhattacharyya", ["--alpha", "0.3"], False,
     lambda p, q, b: res(discrete.bhattacharyya(p, q, 0.3, b), b, "exact")),
    ("discrete", "bc", ["--alpha", "0.3"], False,
     lambda p, q, b: res(discrete.bhattacharyya_coefficient(p, q, 0.3), None,
                         "exact")),
    ("discrete", "chernoff", [], False, chernoff_exact),
    ("discrete", "tv", [], False,
     lambda p, q, b: res(discrete.total_variation(p, q), None, "exact")),
    ("discrete", "taneja", [], False,
     lambda p, q, b: res(discrete.taneja_t(p, q, b), b, "exact")),
    ("discrete", "kl_mixtures", ["--mean", "arithmetic"], False,
     lambda p, q, b: res(discrete.kl_between_mixtures(p, q, ARITH, GEO, b), b,
                         "exact")),
    ("discrete", "gamma", ["--gamma", "0.05"], True,
     lambda p, q, b: res(b.from_nats(
         estimate.gamma_divergence(p, q, 0.05, "exact")), b, "exact")),
    ("discrete", "js_m_gamma", ["--gamma", "0.05", "--mean", "arithmetic"], True,
     lambda p, q, b: res(b.from_nats(
         estimate.js_m_gamma(p, q, ARITH, 0.05, "exact")), b, "exact")),
    ("discrete", "gjsd", ["--mean", "arithmetic"], False,
     lambda p, q, b: res(discrete.js_m(p, q, GEO, 0.5, b), b, "exact")),
    ("discrete", "gjsd_plus", ["--mean", "arithmetic"], True,
     lambda p, q, b: res(discrete.js_m_extended(p, q, GEO, 0.5, b), b,
                         "exact")),
    ("gaussian", "kl", [], False,
     lambda g, h, b: res(b.from_nats(kl_gaussian(g, h)), b, "closed-form")),
    ("gaussian", "kl_plus", [], False,
     lambda g, h, b: res(b.from_nats(kl_gaussian(g, h)), b, "closed-form")),
    ("gaussian", "js", MC, False, lambda g, h, b: monte_carlo(g, h, ARITH, b)),
    ("gaussian", "js_m", [], False,
     lambda g, h, b: res(b.from_nats(gaussian.gjsd_gaussian(g, h, 0.5, 0.5)),
                         b, "closed-form")),
    ("gaussian", "js_m_plus", [], False, gjsd_plus_gaussian),
    ("gaussian", "js_m_plus", ["--mean", "power:0.5", *MC], False,
     lambda g, h, b: monte_carlo(g, h, POW, b)),
    ("gaussian", "jeffreys", [], False,
     lambda g, h, b: res(b.from_nats(gaussian.jeffreys_gaussian(g, h)), b,
                         "closed-form")),
    ("gaussian", "bhattacharyya", ["--alpha", "0.3"], False,
     lambda g, h, b: res(b.from_nats(bhattacharyya_gaussian(g, h, 0.3)), b,
                         "closed-form")),
    ("gaussian", "bc", ["--alpha", "0.3"], False,
     lambda g, h, b: res(gaussian.bhattacharyya_coefficient_gaussian(g, h, 0.3),
                         None, "closed-form")),
    ("gaussian", "tv", [], False,
     lambda g, h, b: res(gaussian.tv_gaussian_1d(0.0, 1.0, 1.5, math.sqrt(2.0)),
                         None, "closed-form")),
    ("gaussian", "gamma", [], False,
     lambda g, h, b: res(b.from_nats(estimate.gamma_divergence(
         *expfam_pair(g, h), 1e-3, "closed_form")), b, "closed-form")),
    ("gaussian", "js_m_gamma", [], False,
     lambda g, h, b: res(b.from_nats(estimate.js_m_gamma(
         *expfam_pair(g, h), GEO, 1e-3, "closed_form")), b, "closed-form")),
    ("gaussian", "js_m_gamma", ["--mean", "power:0.5"], False, quadrature),
    ("gaussian", "gjsd", ["--mean", "arithmetic"], False,
     lambda g, h, b: res(b.from_nats(gaussian.gjsd_gaussian(g, h, 0.5, 0.5)),
                         b, "closed-form")),
    ("gaussian", "gjsd_plus", ["--mean", "arithmetic"], False,
     gjsd_plus_gaussian),
]


def _route_params():
    for kind, div, extra, unnormalized, call in ROUTE_CASES:
        for base in ("nats", "bits"):
            if div == "js_m_plus" and "--samples" in extra and base == "bits":
                continue  # a usage error, see TestExitCodes
            yield pytest.param(kind, div, extra, unnormalized, call, base,
                               id=f"{kind}-{div}-{' '.join(extra[:2])}-{base}")


class TestRoutes:
    def test_cases_cover_every_route(self, capsys, discrete_files,
                                     gaussian_files):
        routes = {(kind, div) for div, (_, on_discrete, on_gaussian)
                  in _ROUTES.items()
                  for kind, route in (("discrete", on_discrete),
                                      ("gaussian", on_gaussian))
                  if route is not None}
        assert len(routes) == 29
        assert {(kind, div) for kind, div, *_ in ROUTE_CASES} == routes
        g1, g2 = gaussian_files
        for div in sorted(set(_ROUTES) - {div for kind, div in routes
                                          if kind == "gaussian"}):
            code, out, err = run_cli(capsys, "compute", "--div", div,
                                     "--gaussian", "--p1", g1, "--p2", g2)
            assert code == 2
            assert err.splitlines() == [
                f"error: divergence {div!r} is not available for Gaussian inputs"]

    @pytest.mark.parametrize("kind, div, extra, unnormalized, call, base",
                             _route_params())
    def test_output_equals_library_call(self, capsys, tmp_path, kind, div,
                                        extra, unnormalized, call, base):
        if kind == "discrete":
            first, second = (U1, U2) if unnormalized else (W1, W2)
            p1 = DiscreteDensity(np.array(first), normalized=not unnormalized)
            p2 = DiscreteDensity(np.array(second), normalized=not unnormalized)
        else:
            first, second = N1, N2
            p1, p2 = (GaussianParams(np.array(g["mu"]), np.array(g["sigma"]))
                      for g in (N1, N2))
        f1 = tmp_path / "p1.json"
        f2 = tmp_path / "p2.json"
        f1.write_text(json.dumps(first))
        f2.write_text(json.dumps(second))
        flags = ["--gaussian"] if kind == "gaussian" else []
        code, out, err = run_cli(capsys, "compute", "--div", div, *flags,
                                 "--p1", str(f1), "--p2", str(f2),
                                 "--base", base, *extra)
        assert (code, err) == (0, "")
        # bit for bit: json round-trips every float exactly
        assert json.loads(out) == call(p1, p2, LogBase(base))


# arbitrary JSON values: anything a hand-written input file or sweep spec holds
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)

# where a drawn value goes: a discrete density file, the mu or sigma of a
# Gaussian file, or one field of a sweep spec whose target draws no samples
# (a six-character string names no other target), so no drawn value asks for
# more than the 10,000-sample default
SLOTS = ("density", "mu", "sigma", "parameter", "values", "target", "mean",
         "alpha", "gamma", "estimator", "inputs", "kind", "p1")


class TestNoTraceback:
    @settings(max_examples=200, deadline=None)
    @given(slot=st.sampled_from(SLOTS), value=JSON_VALUES)
    def test_any_json_value_exits_cleanly(self, slot, value):
        with tempfile.TemporaryDirectory() as tmp:
            path, valid = Path(tmp) / "input.json", Path(tmp) / "valid.json"
            if slot == "density":
                path.write_text(json.dumps(value))
                valid.write_text("[0.25, 0.75]")
                argv = ["compute", "--div", "js", "--p1", str(path),
                        "--p2", str(valid)]
            elif slot in ("mu", "sigma"):
                g = {"mu": [0.0], "sigma": [[1.0]]}
                path.write_text(json.dumps({**g, slot: value}))
                valid.write_text(json.dumps(g))
                argv = ["compute", "--div", "tv", "--gaussian", "--p1", str(path),
                        "--p2", str(valid)]
            else:
                inputs = {"kind": "discrete", "p1": [0.5, 0.5], "p2": [0.25, 0.75]}
                spec = {"parameter": "gamma", "values": [1e-2],
                        "target": "gamma_divergence", "inputs": inputs}
                if slot in ("kind", "p1"):
                    spec["inputs"] = {**inputs, slot: value}
                else:
                    spec[slot] = value
                path.write_text(json.dumps(spec))
                argv = ["sweep", str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
