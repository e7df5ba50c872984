#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current CLI output.

The document_cli workload compares the sha256 of `generate` and `render`
stdout for a fixed set of caller dims against this file, so run it only
when a change to the output format is intended:

    PYTHONPATH=src python3 perfbench/make_digests.py
"""

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from workloads import DIGESTS_PATH, ROOT, digest_cases, run_cli


def main() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=ROOT / ".bench_out")
    try:
        digests = {}
        for key, argv in digest_cases(Path(tmp)):
            code, out = run_cli(argv)
            if code != 0:
                raise SystemExit(f"{key} exited {code}")
            digests[key] = hashlib.sha256(out.encode()).hexdigest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
