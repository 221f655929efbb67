"""Print the SHA-256 of the CSV that every checked-in scenario config writes.

Each ``configs/*.json`` is run through ``cli.write_csv`` into a temporary
directory, with wall-clock timings off and Monte Carlo as the config sets
it.  Two checkouts that print the same lines write byte-identical CSVs.

Usage, from the repository root::

    python tools/csv_digests.py

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from starmimo import cli  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.json")):
            out = Path(tmp) / f"{path.stem}.csv"
            cfg = cli.ScenarioConfig.from_file(path, {"out": str(out), "timings": False})
            cli.write_csv(cfg, cfg.out)
            print(f"{hashlib.sha256(out.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
