"""Set-up path of every featscan command, for timing from outside.

Imports featscan, reads the schema, loads the CSV and discretizes it
with the CLI's default spec, then exits. The caller times the whole
process, interpreter start included:

    python3 perfbench/setup_probe.py DATA_DIR
"""

import sys
from pathlib import Path

from featscan.tabular import DiscretizationSpec, Schema, discretize, load_csv


def main() -> int:
    data_dir = Path(sys.argv[1])
    dataset = load_csv(data_dir / "data.csv",
                       Schema.from_json_file(data_dir / "schema.json"))
    discretize(dataset, DiscretizationSpec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
