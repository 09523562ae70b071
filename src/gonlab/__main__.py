"""``python -m gonlab``: the same command line as the ``gonlab`` script."""

import sys

from gonlab.cli import main

sys.exit(main())
