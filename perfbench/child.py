"""One measured CLI invocation in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON TRACE_JSON|- PROFILE -- CLI_ARGV...

Times the import of hybridqkd plus ``load_config(PROFILE)`` (set-up), then
``hybridqkd.cli.main(CLI_ARGV)`` exactly as the console script calls it.
With a TRACE_JSON path the layer functions are wrapped after set-up and
the trace is written there. hybridqkd is imported from ./src of the
current directory and nowhere else.
"""
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    result_path, trace_path, profile, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE_JSON|- PROFILE -- CLI_ARGV...")
    src = os.path.abspath("src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import hybridqkd
    from hybridqkd import cli
    from hybridqkd.config import load_config

    t1 = time.perf_counter()
    load_config(profile)
    t2 = time.perf_counter()

    if not os.path.abspath(hybridqkd.__file__).startswith(src + os.sep):
        print(f"hybridqkd imported from {hybridqkd.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    t3 = time.perf_counter()
    code = cli.main(cli_argv) if cli_argv else 0  # empty: set-up sample only
    t4 = time.perf_counter()
    sys.stdout.flush()

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if recorder is not None:
        recorder.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "setup_s": t2 - t0,
                "load_config_s": t2 - t1,
                "wall_s": t4 - t3,
                "peak_rss_mb": rss_kb / 1024.0,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
