"""``python -m jordankron``: the ``jordankron`` executable.

The CLI is imported only when the module runs as the program, so importing
``jordankron.__main__`` runs nothing.
"""


def main() -> None:
    """Run ``cli.entry()`` on the command line's arguments; it exits the
    process with the command's code."""
    from .cli import entry

    entry()


if __name__ == "__main__":
    main()
