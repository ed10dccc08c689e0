"""`python -m localsgd` and the `localsgd` command: the CLI with BLAS on
one thread.

The last bits of some products (the Gram matrix, a loss or gradient over
many rows) depend on how many threads BLAS splits them over, so both entry
points fix that count at 1, whatever the environment says. BLAS reads it
when numpy loads, so it is set before anything imports numpy. A program
that imports the package as a library keeps its own thread count."""
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
