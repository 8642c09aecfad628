"""Run one deepa2 CLI stage with spans around its module calls.

Usage: python3 bench/traced_stage.py SPANS_JSON STAGE_ID -- CLI_ARGS...

Needs ``src`` on PYTHONPATH.  Exits with the stage's exit code after writing
the stage's spans to SPANS_JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    out, stage, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_stage.py SPANS_JSON STAGE_ID -- CLI_ARGS...")
    import deepa2.cli

    tracer = spans.Tracer(stage)
    spans.install(tracer)
    code = deepa2.cli.main(cli_args)
    tracer.dump(Path(out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
