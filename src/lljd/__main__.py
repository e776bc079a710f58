"""Entry point of ``python -m lljd`` and of the ``lljd`` console script.

``run`` loads the CLI with the cyclic garbage collector off and then freezes
what the import made. Without this, numpy and the package trigger a few dozen
collections while they load, and the interpreter's full collections at
shut-down walk every one of those long-lived objects again, about 20 ms of a
short command. Frozen objects sit outside every generation, so neither
happens; the objects the command itself makes are collected as usual.
``lljd.cli.main`` leaves the collector alone, so tests and library callers
keep their own.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    try:
        from .cli import main

        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
