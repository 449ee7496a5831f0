"""``python -m freezeflow``: the command-line interface (see ``cli``)."""
from .cli import main

raise SystemExit(main())
