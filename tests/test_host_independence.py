"""Values that must not depend on the BLAS kernel the host picks.

A DYNAMIC_ARCH OpenBLAS picks its kernel at load time, and
``OPENBLAS_CORETYPE`` overrides the pick.  Here a subprocess runs under
``OPENBLAS_CORETYPE=Haswell``, the kernel of an x86 host without AVX-512, and
checks what the weighted Legendre recurrence makes host-independent: column j
of an evaluation block is ``evaluate(j, x)`` whatever J is asked for, and the
evaluation blocks of the composite and piecewise-density goldens keep their
digests.  Grams and quadrature indicators still go through BLAS products and
are not checked here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import test_coeff_goldens

TESTS = Path(__file__).resolve().parent
KINDS = ("legendre-weighted", "piecewise-legendre", "composite")
DIGESTS = ("composite_poly_atoms_evaluate_block", "piecewise_density_evaluate_block")
PROBE = f"""
import json, sys
sys.path.insert(0, {str(TESTS)!r})
import test_bases, test_coeff_goldens
for kind in {KINDS!r}:
    test_bases.test_evaluate_is_a_column_of_the_block(kind)
digests = test_coeff_goldens.digests()
print(json.dumps({{key: digests[key] for key in {DIGESTS!r}}}))
"""


def _dynamic_arch():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not _dynamic_arch(),
                    reason="OPENBLAS_CORETYPE acts only on a DYNAMIC_ARCH OpenBLAS")
def test_weighted_legendre_blocks_hold_under_the_haswell_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env["PYTHONPATH"]]) if env.get("PYTHONPATH") else src
    run = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    expected = test_coeff_goldens.digests()
    assert json.loads(run.stdout.splitlines()[-1]) == {key: expected[key] for key in DIGESTS}
