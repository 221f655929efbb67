"""Print the SHA-256 of the CSV that every checked-in scenario config writes.

Each ``configs/*.json`` is run through ``cli.write_csv`` into a temporary
directory, with wall-clock timings off and Monte Carlo as the config sets
it.  Two checkouts that print the same lines write byte-identical CSVs.

Usage, from the repository root::

    python tools/csv_digests.py
    python tools/csv_digests.py --check tools/csv_digests.txt

``--check FILE`` compares the digests with the lines of FILE (this script's
own output), names every config whose digest differs or that is missing on
either side, and exits 1 if any does.  ``tools/csv_digests.txt`` holds the
checked-in rows' digests.

The package is imported from the ``src`` directory next to this script.
Run as a script, it sets the BLAS thread counts to 1 before numpy is
imported: a Monte Carlo trial drawn in a chunk has the bits of its one-trial
draw only on one thread (README, Monte Carlo oracle).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starmimo import cli  # noqa: E402


def digests() -> dict[str, str]:
    """Config file name -> SHA-256 of the CSV it writes, in name order."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.json")):
            csv_path = Path(tmp) / f"{path.stem}.csv"
            cfg = cli.ScenarioConfig.from_file(path, {"out": str(csv_path), "timings": False})
            cli.write_csv(cfg, cfg.out)
            out[path.name] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return out


def differing(found: dict[str, str], expected: dict[str, str]) -> list[str]:
    """One line per config whose digest is not the expected one."""
    return [f"{name}: expected {expected.get(name, 'nothing')}, got {found.get(name, 'nothing')}"
            for name in sorted(found.keys() | expected.keys())
            if found.get(name) != expected.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digests in FILE and exit 1 on any difference")
    args = parser.parse_args(argv)
    found = digests()
    if args.check is None:
        for name, digest in found.items():
            print(f"{digest}  {name}")
        return 0
    expected = {}
    for line in Path(args.check).read_text(encoding="utf-8").splitlines():
        if line.strip():
            digest, name = line.split()
            expected[name] = digest
    problems = differing(found, expected)
    for problem in problems:
        print(problem)
    if not problems:
        print(f"all {len(found)} CSV digests match {args.check}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
