"""Start ``repro serve`` through the CLI's own entry point, optionally
with the benchmark's server-side probes installed first.

    python3 perfbench/serve_launcher.py [--probe-out FILE] -- serve ARGS...

With ``--probe-out`` the wrappers of :func:`layers.install_serve_probes`
record every request's handling, validation, resolution and digest
calls with timestamps on the shared monotonic clock; the snapshot is
written when the server has drained and the CLI returns.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe-out", type=Path, default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    probe = None
    if args.probe_out is not None:
        probe = layers.Probe(keep_events=True)
        layers.install_serve_probes(probe)
    from repro.__main__ import main as cli_main
    code = cli_main(argv)
    if probe is not None:
        snapshot = probe.snapshot()
        snapshot["events"] = probe.events
        common.write_json(args.probe_out, snapshot)
    return code


if __name__ == "__main__":
    sys.exit(main())
