"""``python -m quadralg``: the command line of ``quadralg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
