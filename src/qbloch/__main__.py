"""``python -m qbloch``: the command-line interface of qbloch.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
