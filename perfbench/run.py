"""Seeded end-to-end benchmark of the blockcheck CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's `src/`, never from an installed copy, and every CLI call goes
through `blockcheck.cli.run` in this one single-threaded process.

A run sets its inputs up several times (reporting the median as `setup_s`),
then repeats rounds of the workload's operations until `--seconds` have
passed, always finishing the round it is in. With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
rounds and prints the per-layer metrics. Times are scaled to a reference
CPU speed with a calibration loop run around each timed interval (see
README.md). The last line of standard output
is one JSON object: correct, attempted, failed, metrics. The lines before
it are a readable report and one `info` JSON line with the seed, versions,
sample counts and output digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "blockcheck" / "__init__.py").is_file():
        print("error: no blockcheck sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import blockcheck

    if Path(blockcheck.__file__).resolve().parent != (src / "blockcheck").resolve():
        print("error: imported blockcheck from %s, not %s" % (blockcheck.__file__, src),
              file=sys.stderr)
        return 2
    import bench

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    scratch = ROOT / "perfbench" / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch))
    try:
        result, info = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in result["metrics"].items():
        print("%-32s %14.6f %s" % (name, m["value"], m["unit"]))
    print("attempted %d failed %d" % (result["attempted"], result["failed"]))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
