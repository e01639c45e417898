"""``python -m dagline``: the same command line as the ``dagline`` script."""
from dagline.cli import main

raise SystemExit(main())
