"""The allocator policy ``paulilab`` sets on import.

Under glibc's default policy the freed temporaries of one equivalence
residual go back to the kernel, and the next residual faults them in again.
With the policy in place, a repeated residual reuses the heap it already
holds.  Where ``mallopt`` is missing the import sets nothing and still works.
"""

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import paulilab
from paulilab import functionals
from paulilab.grids import PERIODIC, SPECTRAL, Grid

CONSTS = functionals.PhysicalConstants(1.0, 1.0, 1.0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_repeated_residual_faults_in_no_fresh_pages():
    grid = Grid((1.0, 1.0, 1.0), (16, 16, 16), PERIODIC)
    fields, dt = functionals.random_smooth_configuration(grid, 12, CONSTS, seed=0)

    def residual():
        functionals.equivalence_residual(grid, fields, CONSTS, dt=dt, time_periodic=True,
                                         scheme=SPECTRAL)

    residual()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    residual()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # 0 with the policy, about 5,600 under glibc's default
    assert faults < 500


# ctypes.CDLL stood in for by a library without mallopt, and by one that cannot load
_NO_MALLOPT = {
    "missing": "ctypes.CDLL = lambda name: object()",
    "unloadable": "def _fail(name):\n    raise OSError('no C library')\nctypes.CDLL = _fail",
}


@pytest.mark.parametrize("case", sorted(_NO_MALLOPT))
def test_import_works_without_mallopt(case):
    code = f"import ctypes\n{_NO_MALLOPT[case]}\nimport paulilab\nprint(paulilab.__version__)"
    env = {**os.environ, "PYTHONPATH": str(Path(paulilab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, paulilab.__version__), done.stderr
