"""The featscan console script, plus the process's own peak memory.

    python3 perfbench/featscan_cli.py RSS_FILE FEATSCAN_ARGS...

Runs ``featscan.cli.main`` as the installed ``featscan`` script does and
writes the peak resident set size (VmHWM, KiB) to RSS_FILE. The child's
``ru_maxrss`` cannot be used instead: Linux carries the parent's peak RSS
over fork and exec into the child's figure.
"""

import sys
from pathlib import Path

from featscan.cli import main


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    rss_file, *argv = sys.argv[1:]
    rc = main(argv)
    Path(rss_file).write_text(str(peak_rss_kib()), encoding="ascii")
    sys.exit(rc)
