"""Run one plexalg CLI call with the layer tracer installed.

    python3 perfbench/cli_child.py TRACE_OUT VERB [ARGS...]

Standard output and the exit code are the CLI's own; the layer counts
and self times go to TRACE_OUT as JSON.  The package import happens
before tracing starts (run.py measures it separately as cli.import_ms).
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from plexalg import cli  # noqa: E402

import tracer  # noqa: E402


def main():
    out = Path(sys.argv[1])
    tr = tracer.Tracer()
    with tr.installed():
        code = cli.main(sys.argv[2:])
    sys.stdout.flush()
    out.write_text(json.dumps(tr.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
