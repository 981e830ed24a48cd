"""``python -m romik``: the same command line as the ``romik`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
