"""``python -m perfbench run ...`` and ``python -m perfbench compare A/ B/``."""

import sys


def main() -> int:
    commands = ("run", "compare")
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        print(f"usage: python -m perfbench {{{'|'.join(commands)}}} ...",
              file=sys.stderr)
        return 2
    command = sys.argv.pop(1)
    if command == "run":
        from perfbench.run import main as entry
    else:
        from perfbench.compare import main as entry
    return entry()


if __name__ == "__main__":
    sys.exit(main())
