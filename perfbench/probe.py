"""Time the program's own set-up in a fresh interpreter.

Usage: ``python3 probe.py '<DatasetSource as JSON>'`` with ``src`` on
PYTHONPATH.  Prints one JSON line: seconds to import the package modules a
campaign uses, and seconds for ``load_dataset`` on the given source.
Interpreter start-up happens before the clock starts, so it is not counted.
"""

import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    import ipuq.campaign as campaign
    import ipuq.mock  # noqa: F401
    import ipuq.reporting  # noqa: F401

    imported = time.perf_counter()
    campaign.load_dataset(campaign.DatasetSource.from_dict(spec))
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "load_s": loaded - imported}))


if __name__ == "__main__":
    main()
