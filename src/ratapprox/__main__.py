"""`python -m ratapprox`: the command line of ratapprox.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
