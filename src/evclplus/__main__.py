"""`python -m evclplus`: the same command line as the `evclplus` script."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
