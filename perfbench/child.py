"""One iteration of an in-process workload, in a fresh interpreter.

``python perfbench/child.py <paper|mc-matrix|import> <seed> <run|trace>``

Times the program's import (``import repro.cli``) and the workload's
own set-up, runs the timed phase once -- with every layer wrapped by
the tracer in ``trace`` mode -- checks the outputs outside the timed
phase and prints one JSON record as its last line.  The ``import``
workload stops after the import.  A fresh process per iteration means
every iteration pays the program's lazy set-up and cold caches, as a
``repro`` invocation does.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    started = time.perf_counter()
    import repro.cli  # noqa: F401 -- the user-visible import

    import_s = time.perf_counter() - started
    if workload == "import":
        print(json.dumps({"import_s": import_s}))
        return 0

    import common
    import layers

    workload_module = __import__(
        {"paper": "paper", "mc-matrix": "mcmatrix"}[workload]
    )
    started = time.perf_counter()
    work = workload_module.prepare(seed)
    prepare_s = time.perf_counter() - started

    tracer = None
    counters = {}
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        counters = layers.batch_phase_counters()

    started = time.perf_counter()
    outputs = workload_module.run(work, tracer)
    wall_s = time.perf_counter() - started

    record = {
        "import_s": import_s,
        "prepare_s": prepare_s,
        "wall_s": wall_s,
        "sizes": work["sizes"],
    }
    if tracer is not None:
        tracer.restore()
        record["layers"] = layers.layer_metrics(tracer, counters)
        record["layers"]["unexplained_s"] = wall_s - tracer.root_time()
    operations, extra = workload_module.check(work, outputs)
    record["operations"] = operations
    record["extra"] = extra
    record["maxrss_mb"] = common.self_maxrss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
