"""``python -m dgsum <command>``: the ``dgsum`` command line."""

from .cli import main

raise SystemExit(main())
