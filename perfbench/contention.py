"""Does a busy process on the same CPU bias the host-speed samples?

    python3 perfbench/contention.py [--phases 40]

On serve-mixed, ``worker.SpeedTrack`` samples the reference kernel in the
client process while ``repro serve`` sorts on the same (pinned) CPU.  If
the service preempted the 1 ms kernel, samples taken under load would
read slow and the scaled times would shrink while the service is busy.

This pins itself to one CPU next to a CPU-bound spinner process (the
worst case: the service is never busier than always runnable) and
alternates 0.5 s phases, so host speed drift hits both sides alike:

* alone: the spinner is stopped and this process spins between samples,
  as a batch worker does (the CPU is busy, nothing competes);
* loaded: this process sleeps between samples and the spinner runs, as
  the serve client does while the service sorts.

It prints the median kernel time of each side and their ratio; 1.0
means the samples do not see the competing process.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from worker import SpeedTrack


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phases", type=int, default=40)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    alone: list[float] = []
    busy: list[float] = []
    try:
        for phase in range(args.phases):
            loaded = phase % 2 == 1
            spinner.send_signal(signal.SIGCONT if loaded else signal.SIGSTOP)
            time.sleep(0.05)
            with SpeedTrack() as track:
                end = time.monotonic() + 0.5
                while time.monotonic() < end:
                    if loaded:
                        time.sleep(0.002)
            (busy if loaded else alone).extend(s for _, s in track.samples)
    finally:
        spinner.kill()
        spinner.wait()
    alone_ms = 1e3 * statistics.median(alone)
    busy_ms = 1e3 * statistics.median(busy)
    print(json.dumps({
        "alone_ms": alone_ms, "busy_ms": busy_ms, "busy_over_alone": busy_ms / alone_ms,
        "samples": [len(alone), len(busy)],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
