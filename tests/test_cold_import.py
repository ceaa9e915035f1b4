"""Importing geojsd loads no scipy; the quadrature route loads scipy.integrate.

Runs in a fresh interpreter, since this test process has scipy loaded
already (the kernel tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import geojsd

PROBE = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import geojsd, geojsd.cli
from geojsd import GaussianParams, MeanSpec, estimate

after_import = scipy_modules()
g1 = estimate.gaussian_sampled(GaussianParams.univariate(0.0, 1.0))
g2 = estimate.gaussian_sampled(GaussianParams.univariate(1.0, 2.0))
before_quad = "scipy.integrate" in sys.modules
value = estimate.js_m_gamma(g1, g2, MeanSpec.power(0.5), 1e-3, "quadrature",
                            support=(-12.0, 13.0))
print(json.dumps({"after_import": after_import, "before_quad": before_quad,
                  "after_quad": "scipy.integrate" in sys.modules, "value": value}))
"""


def test_scipy_loaded_only_by_quadrature():
    src = str(Path(geojsd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    report = json.loads(run.stdout)
    assert report["after_import"] == []
    assert report["before_quad"] is False
    assert report["after_quad"] is True
    assert report["value"] > 0.0
