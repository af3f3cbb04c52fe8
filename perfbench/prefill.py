"""Fill rerun's cache files with one bulk pass, in a process of its own.

    python3 perfbench/prefill.py CACHE_DIR SEED SIZE

Exits 1, naming the failed operations, if any bulk check failed.
"""

import sys

from run import import_library
from workloads import fill_caches, load_reference

if __name__ == "__main__":
    cache_dir, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    failed = fill_caches(import_library(), seed, size, load_reference(), cache_dir)
    if failed:
        print("failed: " + ", ".join(failed))
        sys.exit(1)
