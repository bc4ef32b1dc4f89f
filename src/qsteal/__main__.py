"""`python -m qsteal ...`: the `qsteal` command, also from an uninstalled checkout."""

import sys

from .cli import main

sys.exit(main())
