"""``repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/serve_traced.py --spans FILE [repro serve options]

Parses the options with the ``repro`` CLI's own parser, installs the same
wrappers a traced replay uses, then calls ``repro.serving.run_daemon``.  When
the daemon stops (SIGTERM or SIGINT) the spans are written to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402  (after the path set-up above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    own, serve_options = parser.parse_known_args(argv)

    from repro.cli import build_parser
    from repro.serving import ServingSpec, run_daemon

    args = build_parser().parse_args(["serve", *serve_options])
    spec = ServingSpec.from_args(args)
    recorder = spans.SpanRecorder()
    spans.install(recorder)

    def announce(host: str, port: int) -> None:
        print(f"serving on http://{host}:{port} (traced)", flush=True)

    run_daemon(
        spec,
        host=args.host,
        port=args.port,
        capture_path=args.capture,
        max_request_batch=args.max_request_batch,
        journal_dir=args.journal,
        snapshot_interval=args.snapshot_interval,
        announce=announce,
    )
    recorder.dump(own.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
