"""Regenerate ``reference.json``: each workload's values on fixed inputs.

    python3 perfbench/make_reference.py [--commit REV]

Run it only at a commit whose outputs are trusted.  Every benchmark run
recomputes these values and counts a mismatch beyond
``workloads.REFERENCE_RTOL`` as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", default="", help="revision the values come from")
    args = ap.parse_args(argv)
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    workdir = run.WORK / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values = {name: wl.reference(str(workdir)) for name, wl in workloads.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {
        "commit": args.commit,
        "rel_tol": workloads.REFERENCE_RTOL,
        "environment": run.environment(),
        "values": values,
    }
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
