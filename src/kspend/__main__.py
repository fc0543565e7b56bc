"""``python -m kspend``: the same command line as the ``kspend`` script."""

from .cli import main

if __name__ == "__main__":
    main()
