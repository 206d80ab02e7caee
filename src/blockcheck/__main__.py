"""`python -m blockcheck`: the command-line tool, as the `blockcheck` script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
