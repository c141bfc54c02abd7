"""Entry point for ``python -m repro``."""

from repro.cli import console_main

if __name__ == "__main__":
    raise SystemExit(console_main())
