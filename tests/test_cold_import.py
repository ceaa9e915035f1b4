"""No route loads scipy: not ``import geojsd``, nor ``compute`` on any route.
Nor, at the default one worker, does any route load the thread pool
(``concurrent.futures``, which brings ``logging`` with it).

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
    src = str(Path(geojsd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True)
    report = json.loads(run.stdout)
    assert report["after_import"] == []
    # every --div ran on both input kinds, and all four methods answered
    assert report["methods"] == ["closed-form", "exact", "monte-carlo", "quadrature"]
    assert report["after_compute"] == []
    assert report["after_quad"] == []
    assert report["thread_pool"] == []
    assert report["value"] > 0.0
