#!/usr/bin/env python3
"""Train one fixture model in a process of its own.

    python3 bench/fixture.py <src dir> <arch> <checkpoint path>

``<src dir>`` holds the ``cogtrans`` package.  The model is trained as
``workloads.train_fixture`` describes and its best-validation checkpoint
saved to ``<checkpoint path>``; the last line of standard output is the
median probe time (``speed``) seen while it trained.
"""

import os

# one BLAS/OpenMP thread, set before NumPy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys


def main(argv):
    src, arch, path = argv
    sys.path.insert(0, src)
    import workloads
    print(repr(workloads.train_fixture(arch, path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
