"""Host-speed reference: a fixed task that does not touch planar2.

Usage: python3 perfbench/reference.py

Serves timing requests: for each line read on standard input it runs the
reference task once and prints its seconds; it exits at end of input. It
runs as its own process so that its memory stays out of the benchmark's
peak RSS.

The task is a gather, xor and row sort over a 256 x 4096 int64 block,
shaped like one chunk of the planarity check, then dict and JSON work
like the CLI front end. Its time follows the host's speed for both kinds
of work, and no change to planar2 can move it.
"""

import json
import sys
import time

import numpy as np


def reference_task(values: np.ndarray, xs: np.ndarray, rows: np.ndarray) -> float:
    start = time.perf_counter()
    block = values[xs[None, :] ^ rows] ^ values[None, :] ^ (xs[None, :] * 3 + rows)
    block.sort(axis=1)
    table = {f"k{i * 7919 % 10007}": (i, i * i) for i in range(3000)}
    json.dumps(table, sort_keys=True)
    return time.perf_counter() - start


def main():
    order = 4096
    values = np.random.default_rng(0).integers(0, order, size=order)
    xs, rows = np.arange(order), np.arange(1, 257)[:, None]
    for _ in sys.stdin:
        print(repr(reference_task(values, xs, rows)), flush=True)


if __name__ == "__main__":
    main()
