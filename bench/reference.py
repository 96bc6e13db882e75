"""Time constructions too long for a benchmark workload, once each.

    python3 bench/reference.py twist24        # 24-dimensional twist
    python3 bench/reference.py flat_double16  # flat double of dimension 16

Run from the root of a checkout; prints the wall time in seconds.  The
figures recorded in bench/README.md were measured this way.
"""

import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import lsaforge  # noqa: E402


def heisenberg():
    one = Fraction(1)
    z = (0, 0, 0)
    return lsaforge.Algebra([[z, (0, 0, one), z], [(0, 0, -one), z, z],
                             [z, z, z]])


def affine():
    return lsaforge.Algebra([[(0, 0), (1, 0)], [(-1, 0), (0, 0)]])


def twist24():
    """The criterion-03 instance over the Heisenberg algebra: the twist of
    the Levi-Civita product of its quadratic symplectic algebra."""
    q = lsaforge.build_quadratic_symplectic(heisenberg(), 2)
    dot = lsaforge.levi_civita(q.lie, q.metric)
    r = lsaforge.Tensor2(dot, q.metric.matrix.inverse())
    return lsaforge.twisted_structures(dot, r).cert.passed


def flat_double16():
    q = lsaforge.build_quadratic_symplectic(affine(), 2)
    return lsaforge.flat_double(q.lie, q.metric).cert.passed


CASES = {"twist24": twist24, "flat_double16": flat_double16}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit("usage: reference.py {%s}" % ",".join(CASES))
    start = time.perf_counter()
    passed = CASES[sys.argv[1]]()
    print("%s: %.1f s, certificate %s" % (
        sys.argv[1], time.perf_counter() - start,
        "passes" if passed else "FAILS"))
