"""The process entry of ``python -m ralearn`` and the installed ``ralearn`` command."""
import gc
import sys


def run() -> int:
    """Import the CLI with the collector off, freeze what the imports made,
    then run the command with the collector on.

    The 22,000 or so objects alive by then, numpy's among them, live until
    the process exits, so no collection during the import, the command or
    the interpreter's exit walks them; the command's own garbage is still
    collected.  ``cli.main`` called in-process leaves the collector alone.
    """
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
