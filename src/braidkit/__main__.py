"""`python -m braidkit`: the command line of `braidkit.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
