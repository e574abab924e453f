"""One measured ``randskew`` CLI call in a fresh process.

Usage::

    python3 perfbench/child.py --result R.json [--spans S.json] \
        [--import-only] -- bias --config cfg.txt --seed 7 --out out.csv

Times the import of ``randskew.cli`` (with numpy and scipy), then one
``randskew.cli.main`` call, and writes a JSON result with both times, the
exit code, the process's peak RSS and the BLAS environment.  With
``--spans`` the public functions of the package are traced and the spans
are written to that file after the call.  The package is found through
``PYTHONPATH``, which the harness sets.
"""

from __future__ import annotations

import sys
import time

# (module, get-threads symbol, get-config symbol) of each bundled OpenBLAS.
_OPENBLAS = [
    ("numpy", "scipy_openblas_get_num_threads64_",
     "scipy_openblas_get_config64_"),
    ("scipy", "scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
]


def blas_environment() -> list[dict]:
    """Each bundled OpenBLAS with the thread count it reports."""
    import ctypes
    from pathlib import Path

    found = []
    for mod_name, threads_sym, config_sym in _OPENBLAS:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue
        libdir = Path(mod.__file__).parent.parent / f"{mod_name}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            entry = {"package": mod_name, "library": lib.name,
                     "threads": None, "config": None}
            cdll = ctypes.CDLL(str(lib))
            get_threads = getattr(cdll, threads_sym, None)
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                entry["threads"] = get_threads()
            get_config = getattr(cdll, config_sym, None)
            if get_config is not None:
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                entry["config"] = get_config().decode()
            found.append(entry)
    return found


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    import randskew
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "randskew": randskew.__version__,
        "blas": blas_environment(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
    }


def main() -> int:
    # Time the package import first: modules this script would otherwise
    # import (argparse, json) must not be loaded when the clock starts.
    t0 = time.perf_counter()
    import randskew.cli as cli
    result = {"setup_s": time.perf_counter() - t0}

    import argparse
    import json
    import resource
    import traceback
    from pathlib import Path

    import tracing

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args
    if cli_args[:1] == ["--"]:
        cli_args = cli_args[1:]

    if not args.import_only:
        entry = cli.main
        tracer = None
        if args.spans:
            tracer = tracing.Tracer()
            result["wrapped_references"] = tracer.install()
            entry = tracer.wrap(tracing.ROOT_SPAN, cli.main)
        t1 = time.perf_counter()
        try:
            result["rc"] = entry(cli_args)
        except Exception:
            result["rc"] = 1
            result["traceback"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.dump(Path(args.spans))

    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["env"] = environment()
    Path(args.result).write_text(json.dumps(result, indent=1),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
