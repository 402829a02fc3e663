"""``python -m tripleshard``: the same verbs as the ``tripleshard`` command."""

import sys

from .cli import main

sys.exit(main())
