"""Child-process entry points of the benchmark.

    child.py setup <workload>            time one workload set-up, print JSON
    child.py versions                    print numpy's BLAS build, as JSON
    child.py cli <spans-file> <argv...>  run latorb.cli traced, save spans

Each runs in a fresh interpreter started by run.py, with src/ on
PYTHONPATH and BLAS held to one thread.
"""

import json
import sys
import time


def _setup(name):
    import workloads

    wl = workloads.WORKLOADS[name]()
    start = time.perf_counter()
    wl.setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def _versions():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({"blas": blas.get("name"), "blas_version": blas.get("version")}))
    return 0


def _cli(spans_path, argv):
    import tracing
    from latorb import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


def main(argv):
    if argv[0] == "setup":
        return _setup(argv[1])
    if argv[0] == "versions":
        return _versions()
    if argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    raise SystemExit(f"unknown child command {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
