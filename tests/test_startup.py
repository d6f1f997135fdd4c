"""What each import and route loads, checked in fresh interpreters.

scipy costs most of a cold start (``scipy.integrate`` alone about 0.8 s of
1.2 s on a 2-core VM), so it is imported only inside the code that uses
it: ``quad`` in the quadrature oracles and ``CubicSpline`` for tabulated
data.  The lattice step operator is plain numpy, so the deterministic
lattice routes load no scipy at all.
A scipy import put back at the top of any module makes these tests fail.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_loaded(code, cwd):
    """Run ``code`` in a fresh interpreter; the scipy modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _route(tmp_path, route, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, out_dir=str(tmp_path / "out"))))
    return (f"import contextlib, io\nfrom whitenoise_transport.cli import run\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert run({str(path)!r}, route={route!r}) == 0\n")


MC = dict(time={"t_max": 0.2, "dt": 0.01, "record_every": 2},
          mc={"n_traj": 4, "batch_size": 2, "boundary_tol": 1e-3},
          fit={"window": [0.02, 0.2]})


def test_package_import_loads_no_scipy(tmp_path):
    assert _scipy_loaded("import whitenoise_transport\n", tmp_path) == set()


LATTICE = dict(model={"space": "lattice"}, correlation={"kind": "gaussian", "matrix": [[40.0]]},
               initial={"kind": "point"}, fit={"window": [2.0, 5.0]},
               evolve={"t_max": 5.0, "dt": 0.01, "record_every": 20, "y_box": 7})


@pytest.mark.parametrize("route, cfg", [
    ("mc-continuum", dict(MC, grid={"points": 128, "length": 40.0})),
    ("classical", MC),
    ("analytic-msd", dict(time={"t_max": 20.0, "n_points": 41}, fit={"window": [5.0, 20.0]})),
    ("compare", LATTICE),
    ("evolve-lattice", LATTICE),
    ("lattice-law", dict(LATTICE, time={"t_max": 5.0, "n_points": 21})),
])
def test_routes_load_no_scipy(tmp_path, route, cfg):
    assert _scipy_loaded(_route(tmp_path, route, cfg), tmp_path) == set()


def test_3d_hierarchy_loads_no_scipy(tmp_path):
    code = (
        "import numpy as np\n"
        "from whitenoise_transport import (GaussianCorrelation, LatticeInitialData, ModelParams,\n"
        "                                  Space, evolve_hierarchy)\n"
        "params = ModelParams(space=Space.LATTICE, dim=3)\n"
        "series, info = evolve_hierarchy(LatticeInitialData.point(3, 5),\n"
        "                                GaussianCorrelation(40.0 * np.eye(3)), params,\n"
        "                                t_max=0.1, dt=0.01, boundary_tol=1.0)\n"
        "assert info['trace_drift'] == 0.0 and series.msd[-1] > 0.0\n"
    )
    assert _scipy_loaded(code, tmp_path) == set()


def test_quadrature_oracles_import_on_demand(tmp_path):
    code = (
        "import numpy as np\n"
        "from whitenoise_transport import (GaussianCorrelation, GaussianPureState, ModelParams,\n"
        "                                  laplace_transform_numeric, msd_by_kernel_differences,\n"
        "                                  msd_closed_form)\n"
        "params = ModelParams()\n"
        "init, corr = GaussianPureState(1.0), GaussianCorrelation([[1.0]])\n"
        "ts = np.array([0.5, 1.0, 2.0])\n"
        "fd = msd_by_kernel_differences(ts, init, corr, params).msd\n"
        "cf = msd_closed_form(ts, init, corr, params).msd\n"
        "np.testing.assert_allclose(fd, cf, rtol=1e-6)\n"
        "got = laplace_transform_numeric(lambda t: np.exp(-t), 2.0)\n"
        "assert abs(got - 1.0 / 3.0) < 1e-10, got\n"
    )
    assert "scipy.integrate" in _scipy_loaded(code, tmp_path)
