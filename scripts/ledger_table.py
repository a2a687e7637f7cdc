#!/usr/bin/env python3
"""Print the ledger's cost per transaction on toy elections, in microseconds.

For each voter count, the benchmark's toy-large roster (``perfbench/
workloads.py``) at that size is run once per repetition. The rows are:
``Ledger.submit``, timed around each call the run makes and divided by
the number of calls; then ``export_log`` of the run's log, ``import_log``
of that text and ``replay`` of the parsed transactions, each divided by
the number of transactions. Each cell is the median over the repetitions.
Toy keys cost almost nothing, so the rows are the ledger's and the
contract's own work.

    PYTHONPATH=src python scripts/ledger_table.py
"""

import statistics
import sys
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from blindvote.ledger import Ledger, export_log, import_log, replay  # noqa: E402
from blindvote.scenario import Election  # noqa: E402

import workloads  # noqa: E402

SIZES = (100, 1600, 3200)
REPEAT = 5
SEED = 1

#: the rows of the table
NAMES = ("`Ledger.submit`", "`export_log`", "`import_log`", "`replay`")


def _sample(voters: int) -> tuple[int, tuple[float, ...]]:
    """One election's transaction count and its four per-transaction costs, in s."""
    submits = []
    submit = Ledger.submit

    def timed(self, *args):
        start = time.perf_counter()
        try:
            return submit(self, *args)
        finally:
            submits.append(time.perf_counter() - start)

    election = Election(workloads.toy_config(voters, SEED))
    with mock.patch.object(Ledger, "submit", timed):
        election.run()
    log = election.ledger.log
    start = time.perf_counter()
    text = export_log(log)
    exported = time.perf_counter()
    transactions = import_log(text)
    imported = time.perf_counter()
    replay(transactions)
    replayed = time.perf_counter()
    spans = (exported - start, imported - exported, replayed - imported)
    return len(log), (sum(submits) / len(submits), *(s / len(log) for s in spans))


def table(repeat: int = REPEAT) -> str:
    """The table as markdown, each cell the median of ``repeat`` elections."""
    columns = []
    for voters in SIZES:
        samples = [_sample(voters) for _ in range(repeat)]
        columns.append(
            (samples[0][0], [statistics.median(s[1][i] for s in samples) for i in range(4)])
        )
    lines = [
        "| µs per transaction, toy voters | " + " | ".join(f"{n:,}" for n in SIZES) + " |",
        "|---" * (len(SIZES) + 1) + "|",
        "| transactions | " + " | ".join(f"{count:,}" for count, _ in columns) + " |",
    ]
    for i, name in enumerate(NAMES):
        lines.append(f"| {name} | " + " | ".join(f"{cells[i] * 1e6:.2f}" for _, cells in columns) + " |")
    return "\n".join(lines)


def main() -> int:
    print(table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
