"""``python -m mapnets``: the command-line driver, as the ``mapnets`` script."""

import sys

from .cli import main

sys.exit(main())
