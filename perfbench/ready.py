"""Set-up timing child: import the runtime, build the runners, say ``ready``.

Run as ``python3 perfbench/ready.py CACHE_DIR`` with ``src`` on
``PYTHONPATH``.  The parent times it from spawn to the ``ready`` line; the
child then prints the seconds of one host-speed probe run on its own CPU,
which normalizes that time.
"""

import sys

from repro.runtime import ResultCache, SweepRunner, task_runner_for

if __name__ == "__main__":
    runner = SweepRunner(parallel=False, cache=ResultCache(sys.argv[1]))
    task_runner_for(runner)
    print("ready", flush=True)
    from measure import probe

    print(probe(), flush=True)
