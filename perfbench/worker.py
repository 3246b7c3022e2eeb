"""One benchmark pass in a fresh interpreter: import the CLI, run the queries, report.

Started by perfbench/run.py. The request arrives on stdin as JSON. The first
stdout line is the CLOCK_MONOTONIC instant at which `bicolored.cli` finished
importing (the end of set-up); the last stdout line is the pass's result as JSON.
"""

import sys
import time


def run_queries(cli, queries, tracer=None):
    """Run each argv list through cli.main with stdout and stderr captured."""
    import io
    results = []
    real_out, real_err = sys.stdout, sys.stderr
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in queries:
        out = io.StringIO() if tracer is None else tracer.capture()
        err = io.StringIO()
        sys.stdout, sys.stderr = out, err
        start = time.perf_counter()
        try:
            rc = cli.main(argv)   # looked up per call, so a traced pass meets its wrapper
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the pass must finish and say which query broke
            rc = "%s: %s" % (type(exc).__name__, exc)
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        results.append({"rc": rc, "seconds": time.perf_counter() - start,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    return results, time.perf_counter() - wall0, time.process_time() - cpu0


def main():
    import bicolored.cli as cli
    print("ready %.9f" % time.monotonic(), flush=True)

    import json
    import resource

    request = json.load(sys.stdin)
    report = {"module": cli.__file__}
    if not request.get("probe"):
        tracer = None
        if request["trace"]:
            import layertrace
            tracer = layertrace.Tracer()
            tracer.install()
        results, wall, cpu = run_queries(cli, request["queries"], tracer)
        report.update(results=results, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            report["layers"] = tracer.summary()
            tracer.write_spans(request["spans_path"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
