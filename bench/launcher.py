"""Child-process entry for the cli workload: `python3 bench/launcher.py ARGS`
runs `resonet ARGS` the way the console script does (import `resonet.cli`,
call `main`, exit with its code).

With BENCH_SPAN_FILE set it also times the import, installs the same span
wrappers as the in-process workloads, and saves the spans to that file.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    span_file = os.environ.get("BENCH_SPAN_FILE")
    if not span_file:
        from resonet.cli import main as cli_main

        return cli_main(argv)

    t0 = time.perf_counter_ns()
    from resonet.cli import main as cli_main

    t1 = time.perf_counter_ns()
    sys.path.insert(0, HERE)
    from layers import WRAPS
    from spans import Tracer

    tracer = Tracer()
    tracer.add("cli.import", t0, t1)
    tracer.install(WRAPS)
    sid = tracer.begin("cli.main")
    code = 1
    try:
        code = cli_main(argv)
    finally:
        tracer.finish(sid, error=code != 0, figure={"command": argv[0] if argv else ""})
        tracer.save(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
