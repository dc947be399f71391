"""Run the command line as ``python -m abelfm``."""

import sys

from .cli import main

sys.exit(main())
