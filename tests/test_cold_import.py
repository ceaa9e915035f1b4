"""What a cold process imports.

- Each ``compute`` route loads only the geojsd modules it runs: an exact
  sum loads none of ``estimate``, ``expfam``, ``gaussian`` and
  ``verification``, and no ``compute`` loads ``verification``.  Checked in
  fresh ``python -X importtime -m geojsd`` processes, whose import report
  names every module they load.
- ``import geojsd`` loads no submodule; each name the package exports
  resolves on first use (PEP 562) to the object it names in its submodule.
- No route loads scipy: not ``import geojsd``, nor ``compute`` on any
  route.  Nor, at the default one worker, does any route load the thread
  pool (``concurrent.futures``, which brings ``logging`` with it).  Runs in
  a fresh interpreter, since this test process has scipy loaded already
  (the kernel tests use it as an oracle).
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geojsd

SRC = str(Path(geojsd.__file__).resolve().parent.parent)

# Every name the package bound when its __init__ imported each submodule
# eagerly, with the submodule that defines it; a submodule maps to itself.
EAGER_NAMES = {name: module for module, names in {
    "_kernels": "",
    "discrete": "DiscreteDensity F_BHATTACHARYYA_COEFF F_EXTENDED_GJS F_GENERATORS "
                "F_JEFFREYS F_JS F_KL F_TANEJA FGenerator bhattacharyya "
                "bhattacharyya_coefficient chernoff coarse_grain cross_entropy "
                "f_divergence jeffreys js js_m js_m_extended kl kl_between_mixtures "
                "kl_extended m_mixture shannon_entropy taneja_t total_variation",
    "errors": "DisjointSupport DivergentIntegral DomainViolation GeoJSDError "
              "InvalidAlpha InvalidDensity NoConvergence NonPositiveInput "
              "NotPositiveDefinite ProposalSupportViolation TooManySamples",
    "estimate": "EstimatorConfig SampledDensity arithmetic_mixture_proposal "
                "categorical_sampled estimate_js_m_extended estimate_kl_extended "
                "estimate_z gamma_divergence gaussian_sampled js_m_gamma",
    "expfam": "ExpFamily ExpFamilyDensity bregman categorical_family "
              "categorical_theta dual_gjsd_ef gaussian_family gjsd_ef "
              "gjsd_extended_ef skew_jensen",
    "gaussian": "GaussianNatural GaussianParams bhattacharyya_coefficient_gaussian "
                "bhattacharyya_gaussian cumulant cumulant_ordinary from_natural "
                "geometric_mixture_params gjsd_extended_gaussian gjsd_gaussian "
                "jeffreys_gaussian kl_gaussian natural_flat to_natural tv_gaussian_1d",
    "logbase": "BITS NATS LogBase",
    "means": "MeanKind MeanSpec evaluate log_evaluate power_limit_check",
}.items() for name in (module, *names.split())}


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    return env


def geojsd_modules_loaded(*argv, cwd=None) -> tuple[str, list[str]]:
    """Stdout of ``python -X importtime ARGV``, and the geojsd modules it loaded."""
    run = subprocess.run([sys.executable, "-X", "importtime", *argv], env=fresh_env(),
                         cwd=cwd, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    names = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
             if line.startswith("import time:")}
    return run.stdout, sorted(n for n in names if n.split(".")[0] == "geojsd")


# what every command loads: the package, the cli and the exact sums
CORE = {"geojsd", "geojsd._kernels", "geojsd._suites", "geojsd.cli",
        "geojsd.discrete", "geojsd.errors", "geojsd.logbase", "geojsd.means"}


@pytest.mark.parametrize("method, argv, extra", [
    ("exact", ["--div", "js", "--p1", "p1.txt", "--p2", "p2.txt"], set()),
    ("exact", ["--div", "gamma", "--p1", "p1.txt", "--p2", "p2.txt"], {"estimate"}),
    ("closed-form", ["--div", "gjsd", "--gaussian", "--p1", "g1.json", "--p2", "g2.json"],
     {"gaussian"}),
    ("closed-form", ["--div", "gamma", "--gaussian", "--p1", "g1.json", "--p2", "g2.json"],
     {"gaussian", "estimate", "expfam"}),
    ("monte-carlo", ["--div", "js", "--gaussian", "--p1", "g1.json", "--p2", "g2.json",
                     "--samples", "2000"], {"gaussian", "estimate"}),
    ("quadrature", ["--div", "js_m_gamma", "--mean", "power:0.5", "--gaussian",
                    "--p1", "g1.json", "--p2", "g2.json"], {"gaussian", "estimate"}),
])
def test_each_route_loads_only_its_modules(tmp_path, method, argv, extra):
    for name, text in (("p1.txt", "0.2 0.3 0.5"), ("p2.txt", "0.4 0.4 0.2"),
                       ("g1.json", '{"mu": [0.0], "sigma": [[1.0]]}'),
                       ("g2.json", '{"mu": [1.0], "sigma": [[2.0]]}')):
        (tmp_path / name).write_text(text)
    out, loaded = geojsd_modules_loaded("-m", "geojsd", "compute", *argv, cwd=tmp_path)
    assert json.loads(out)["method"] == method
    assert loaded == sorted(CORE | {f"geojsd.{name}" for name in extra})


def test_import_geojsd_loads_no_submodule():
    assert geojsd_modules_loaded("-c", "import geojsd")[1] == ["geojsd"]


def test_names_resolve_as_the_eager_package_bound_them():
    for name, module in EAGER_NAMES.items():
        home = importlib.import_module(f"geojsd.{module}")
        assert getattr(geojsd, name) is (home if name == module
                                         else getattr(home, name)), name
    assert set(EAGER_NAMES) <= set(dir(geojsd))
    namespace: dict = {}
    exec("from geojsd import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == {name for name in EAGER_NAMES if not name.startswith("_")}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        geojsd.no_such_name


PROBE = r"""
import contextlib, io, json, os, sys, tempfile

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

def scipy_modules():
    return loaded("scipy")

import geojsd, geojsd.cli
from geojsd import GaussianParams, MeanSpec, estimate

after_import = scipy_modules()
folder = tempfile.mkdtemp()
files = {"p1.txt": "0.2 0.3 0.5", "p2.txt": "0.4 0.4 0.2",
         "g1.json": json.dumps({"mu": [0.0], "sigma": [[1.0]]}),
         "g2.json": json.dumps({"mu": [1.0], "sigma": [[2.0]]})}
for name, text in files.items():
    with open(os.path.join(folder, name), "w") as handle:
        handle.write(text)
methods = set()
for div in geojsd.cli._ROUTES:
    for inputs in (["p1.txt", "p2.txt"], ["g1.json", "g2.json", "--gaussian"]):
        for mean in ("geometric", "power:0.5"):
            out = io.StringIO()
            argv = ["compute", "--div", div, "--p1", os.path.join(folder, inputs[0]),
                    "--p2", os.path.join(folder, inputs[1]), *inputs[2:],
                    "--mean", mean, "--samples", "2000"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = geojsd.cli.main(argv)
            if code == 0:
                methods.add(json.loads(out.getvalue())["method"])
after_compute = scipy_modules()
g1 = estimate.gaussian_sampled(GaussianParams.univariate(0.0, 1.0))
g2 = estimate.gaussian_sampled(GaussianParams.univariate(1.0, 2.0))
value = estimate.js_m_gamma(g1, g2, MeanSpec.power(0.5), 1e-3, "quadrature",
                            support=(-12.0, 13.0))
print(json.dumps({"after_import": after_import, "after_compute": after_compute,
                  "methods": sorted(methods), "after_quad": scipy_modules(),
                  "thread_pool": loaded("concurrent.futures"), "value": value}))
"""


def test_no_route_loads_scipy():
    run = subprocess.run([sys.executable, "-c", PROBE], env=fresh_env(), check=True,
                         capture_output=True, text=True)
    report = json.loads(run.stdout)
    assert report["after_import"] == []
    # every --div ran on both input kinds, and all four methods answered
    assert report["methods"] == ["closed-form", "exact", "monte-carlo", "quadrature"]
    assert report["after_compute"] == []
    assert report["after_quad"] == []
    assert report["thread_pool"] == []
    assert report["value"] > 0.0
