"""Digest one pass of a checkout's bench job lists, for byte-identity checks.

    python tests/job_digest.py [CHECKOUT] [--seed N] [--workload NAME ...]

Imports `bench/run.py` from CHECKOUT (default: the checkout holding this
file), so the jobs run against that checkout's `src/`. For each workload it
builds the job list from --seed in a temporary directory and calls every job
once, in order, in-process through `run.fresh_cli` and `run.make_caller`.
It prints one line per workload: the job count and a sha256 over each job's
exit code (or raised exception), stdout, stderr and the files the job
declares as written. The temporary directory's path is replaced by a fixed
token before hashing, so two checkouts that behave alike print the same
lines. Nothing under `bench/` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _update(h, *chunks) -> None:
    for chunk in chunks:
        data = chunk if isinstance(chunk, bytes) else str(chunk).encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)


def digest(run, workload, seed: int) -> tuple:
    """(job count, hex sha256) of one pass over workload's job list."""
    with tempfile.TemporaryDirectory() as work:
        call = run.make_caller(run.fresh_cli())
        jobs = workload.build(random.Random(seed), work, call)
        h = hashlib.sha256()
        for job in jobs:
            res = call(job.argv)
            exc = None if res.exc is None else f"{type(res.exc).__name__}: {res.exc}"
            _update(h, job.kind, res.rc, exc,
                    res.out.replace(work, "<work>"), res.err.replace(work, "<work>"))
            for path in job.outputs:
                with open(path, "rb") as fh:
                    _update(h, os.path.relpath(path, work), fh.read())
        return len(jobs), h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?", default=ROOT)
    ap.add_argument("--seed", type=int, default=9001)
    ap.add_argument("--workload", action="append",
                    help="a workload name; repeatable (default: every workload)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import run
    names = args.workload or list(run.WORKLOADS)
    for name in names:
        n, hexdigest = digest(run, run.WORKLOADS[name], args.seed)
        print(f"{name} seed={args.seed} jobs={n} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
