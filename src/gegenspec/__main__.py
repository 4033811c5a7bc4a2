"""`python -m gegenspec ...` runs the command line of gegenspec.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
