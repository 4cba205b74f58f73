"""The package's top-level names, and the modules its pipeline imports."""

import os
import subprocess
import sys

import trifocal


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from trifocal import *", namespace)   # AttributeError on a name that does not resolve
    assert all(namespace[name] is getattr(trifocal, name) for name in trifocal.__all__)


def test_the_pipeline_never_imports_numpy_ma():
    """np.unique without return_index or counts, and np.setdiff1d, import
    numpy.ma in NumPy 2.4 (about 1.25 MB and 10 ms); discovery, the rank
    sweeps, the NZD check and evaluation take poly.distinct instead."""
    code = ("import sys\n"
            "from trifocal import ideal, orbits, poly\n"
            "nf = orbits.trifocal_normal_form()\n"
            "disc = ideal.discover(3, nf, seed=2024)\n"
            "gens = disc.gens\n"
            "assert ideal.hilbert_quotient(gens, 3) == 3644\n"
            "assert ideal.graded_nonzerodivisor_check(gens, poly.f_determinant(), cap=3)\n"
            "assert ideal.evaluate_batch(disc.modules()[0].basis, nf) == [0] * 10\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trifocal.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
