"""``python -m smposet``: the command-line front end of `smposet.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
