"""The program entry: ``python -m schmidt_forge`` and the ``schmidt-forge`` script."""

import gc

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` with the import-time heap frozen.

    What numpy and the package made at import lives until the process ends.
    Frozen, it is skipped by every cyclic collection, the interpreter's
    final passes at exit included. ``cli.main`` itself freezes nothing, so
    tests and library callers keep a normal collector.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
