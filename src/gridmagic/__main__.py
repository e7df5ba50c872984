"""`python -m gridmagic`: the same command line as the `gridmagic` script."""

from .io_cli import main

if __name__ == "__main__":
    main()
