"""One timed syncprobe CLI call in a fresh interpreter.

    python3 child.py LAUNCH_NS RESULT_JSON SPANS_NPZ|- [CLI ARGS...]

LAUNCH_NS is the parent's time.monotonic_ns() just before it started this
process; set-up time runs from there until ``syncprobe.cli`` is imported.
Wall time runs from ``cli.main`` entry to its return.  With SPANS_NPZ the
call is traced and its spans are saved there; with no CLI arguments the
process only measures set-up.
"""

import json
import resource
import sys
import time


def main() -> None:
    launched_ns = int(sys.argv[1])
    result_path, spans_path, cli_args = sys.argv[2], sys.argv[3], sys.argv[4:]
    import syncprobe.cli as cli
    result = {"setup_s": (time.monotonic_ns() - launched_ns) / 1e9}
    if cli_args:
        run = cli.main
        tracer = None
        if spans_path != "-":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            run = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter_ns()
        result["exit_code"] = run(cli_args)
        result["wall_s"] = (time.perf_counter_ns() - t0) / 1e9
        if tracer is not None:
            tracer.save(spans_path)
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN covers the pool
    # workers, which the pool has joined by the time main returns.
    result["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
