"""``python -m prsyn``: the ``prsyn`` command line of ``prsyn.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
