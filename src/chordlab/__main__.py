"""`python -m chordlab ...` runs the command line, with its exit code."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
