"""``python -m rampagg``: the same command line as the ``rampagg`` script."""

import sys

from .cli import main

sys.exit(main())
