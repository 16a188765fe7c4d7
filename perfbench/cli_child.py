"""Run one riemscale CLI command, traced or timed against the reference.

Usage: cli_child.py {spans,samples} OUT_PATH CLI_ARGS...

Behaves like ``python -m riemscale.cli CLI_ARGS...`` (same output, same
exit status).  With ``spans`` it installs the span wrappers and writes
the recorded spans and counters to OUT_PATH as JSON when the command
ends.  With ``samples`` it imports the CLI as the command would, then
takes reference samples (see `reference`) while the command runs and
writes them to OUT_PATH as JSON: chunk counts and times, and
``overhead``, the seconds spent on the reference here, its import
included, which the parent takes out of the job's time.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import riemscale.cli  # noqa: E402


def run(argv) -> int:
    try:
        return riemscale.cli.main(argv)
    except SystemExit as exc:
        return exc.code


def traced(out: Path, argv) -> int:
    from instrument import install
    from tracer import Tracer

    tracer = Tracer()
    installed = install(tracer)
    tracer.begin_job(0)
    try:
        return run(argv)
    finally:
        installed.remove()
        sys.stdout.flush()
        out.write_text(json.dumps(tracer.to_dict()))


def sampled(out: Path, argv) -> int:
    t0 = time.perf_counter()
    from reference import Speedometer

    speed = Speedometer()
    overhead = time.perf_counter() - t0
    try:
        with speed.during_job(True):
            return run(argv)
    finally:
        sys.stdout.flush()
        out.write_text(json.dumps({
            "chunks": speed.chunks, "seconds": speed.seconds,
            "overhead": overhead + speed.inside,
        }))


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    return {"spans": traced, "samples": sampled}[mode](out, argv)


if __name__ == "__main__":
    sys.exit(main())
