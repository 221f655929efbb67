"""Time one cold set-up: import starmimo, parse the scenario, build its systems.

Started by harness.measure_setup in a fresh interpreter with one argument, a
JSON object {"src": ..., "config": ..., "systems": [build_system overrides]}
("systems": null only imports).  Prints the elapsed seconds.
"""

import json
import sys
import time


def main() -> int:
    payload = json.loads(sys.argv[1])
    sys.path.insert(0, payload["src"])
    start = time.perf_counter()
    from starmimo import cli

    if payload["systems"] is not None:
        cfg = cli.ScenarioConfig.from_dict(payload["config"])
        for overrides in payload["systems"]:
            cli.build_system(cfg, **overrides)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
