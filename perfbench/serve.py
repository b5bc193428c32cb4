"""``repro serve`` behind one host-speed probe run in the server's own process.

Run as ``python3 perfbench/serve.py [repro serve options]`` with ``src`` on
``PYTHONPATH``.  It prints ``probe <seconds>`` and then runs the stock CLI's
``serve`` command.  The parent normalizes the server's start-up time by
that probe: the CPU a child lands on can run at another speed than the
parent's.
"""

import sys

from measure import probe

if __name__ == "__main__":
    print(f"probe {probe()!r}", flush=True)
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
