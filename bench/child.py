"""One repeat of one workload, in a fresh interpreter.

    python bench/child.py --workload W --inputs FILE --trace 0|1 [--trace-out FILE]

Loads the generated inputs, then: import ``repro`` → build → warm-up →
**timed section** → read results.  Prints one JSON object as the last line
of stdout.  With ``--trace 1`` every layer's entry points are wrapped for
the length of the process and the spans are written to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time


def peak_rss_mb() -> float:
    """This process's own high-water RSS.

    ``VmHWM`` rather than ``ru_maxrss``: on Linux the latter also covers the
    forked image of the parent before ``exec``, so a parent grown by its
    recording pass would show up in the child's figure.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with open(args.inputs, "rb") as handle:
        # Written by the parent run.py a moment ago; nothing else is unpickled.
        inputs = pickle.load(handle)
    load_s = time.perf_counter() - started

    # -- setup: import + build + warm-up --------------------------------------
    setup_started = time.perf_counter()
    import repro  # noqa: F401  (the clock covers this import)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = patches = None
    if args.trace:
        from instrument import Instrumenter
        from spans import Tracer

        tracer, patches = Tracer(), Instrumenter()
        tracer.install(patches)
    state = workload.build(inputs)
    setup_s = time.perf_counter() - setup_started

    # -- timed section ----------------------------------------------------------
    if tracer is None:
        timed_started = time.perf_counter()
        workload.timed(state)
        timed_s = time.perf_counter() - timed_started
    else:
        with tracer.root():
            workload.timed(state)
        timed_s = tracer.root_ns * 1e-9
    result = workload.result(state)
    rss_mb = peak_rss_mb()
    result.update(
        timed_s=timed_s, setup_s=setup_s, load_s=load_s, peak_rss_mb=rss_mb
    )
    if tracer is not None:
        from spans import layer_metrics

        # Nothing the instrumenter did may outlive this process's timed run.
        patches.restore()
        tracer.check_exact()
        result["per_layer"] = layer_metrics(
            tracer, {**result["counts"], "updates": result["updates"]}
        )
        if args.trace_out:
            document = tracer.document()
            document["workload"] = args.workload
            with open(args.trace_out, "w") as handle:
                json.dump(document, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
