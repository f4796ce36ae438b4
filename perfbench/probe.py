"""Set-up probe: a fresh interpreter pays what each planar2 CLI invocation pays.

Usage: python3 perfbench/probe.py SRC M,K [M,K ...] [--trace]

Imports numpy and planar2 with its CLI from SRC, then constructs every
listed tower and its field. When done it prints one line: "ready", or with
--trace the spans recorded around fields.field and fields.tower as JSON.
"""

import json
import sys


def main(argv):
    trace = "--trace" in argv
    src, *pairs = [a for a in argv if a != "--trace"]
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import planar2.cli  # noqa: F401
    from planar2 import fields

    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, ("fields.field", "fields.tower"))
    for pair in pairs:
        m, k = (int(v) for v in pair.split(","))
        fields.tower(m, k)
    print(json.dumps([list(s) for s in tracer.spans]) if trace else "ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
