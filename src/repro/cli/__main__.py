"""``python -m repro.cli``: the ``repro-roa`` entry point."""

import sys

from . import main

sys.exit(main())
