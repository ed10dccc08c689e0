"""`python -m localsgd`: the `localsgd` command without an install."""
from .cli import main

raise SystemExit(main())
