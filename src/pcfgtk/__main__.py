"""``python -m pcfgtk``: the same command line as the ``pcfgtk`` script."""
from .cli import console_main

if __name__ == "__main__":
    console_main()
