"""`python -m resonet ARGS` runs the `resonet` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
