"""One run of the tspmcts CLI in a child process, optionally traced.

    PYTHONPATH=src python3 bench/child.py OUT.json [--trace [--corrupt-length]] solve --instances ...

Writes OUT.json with the CLI's exit code, the seconds spent in ``cli.main``,
and the exact floats behind its result CSVs: ``float.hex`` of every solver
length, or of every configuration's mean gap. The CLI itself writes them
with 9 decimals, which is too coarse to compare two runs bit for bit. With
``--trace`` the run is traced (see ``tracer.py``); OUT.json then also holds
the per-layer metrics, the layer times and the count of bad best tours, and
the spans go to OUT.json's sibling ``trace.json``. ``--corrupt-length`` is
for the benchmark's self-test: the tracer checks the first best tour against
a wrong length, which must count as a bad tour.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


@contextlib.contextmanager
def capturing(sink: list):
    """Append the exact lengths or mean gaps as the CLI writes its CSVs."""
    from tspmcts.evalkit import ResultTable
    from tspmcts.tuner import TuningReport

    result_csv = ResultTable.write_csv
    tuning_csv = TuningReport.write_csv

    def write_results(table, path):
        sink.extend(float.hex(r.solver_length) for r in table.rows)
        return result_csv(table, path)

    def write_tuning(report, path):
        sink.extend(float.hex(g) for g in report.mean_gaps)
        return tuning_csv(report, path)

    ResultTable.write_csv = write_results
    TuningReport.write_csv = write_tuning
    try:
        yield sink
    finally:
        ResultTable.write_csv = result_csv
        TuningReport.write_csv = tuning_csv


def main(argv: list[str]) -> int:
    from tspmcts import cli

    out, cli_argv = Path(argv[0]), argv[1:]
    flags = set()
    while cli_argv[0] in ("--trace", "--corrupt-length"):
        flags.add(cli_argv.pop(0))
    traced = "--trace" in flags
    record: dict = {"exact": []}
    with contextlib.ExitStack() as stack:
        stack.enter_context(capturing(record["exact"]))
        if traced:
            from tracer import Tracer

            tracer = stack.enter_context(Tracer(corrupt_length="--corrupt-length" in flags).installed())
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        t0 = time.perf_counter()
        record["code"] = cli.main(cli_argv)
        record["main_s"] = time.perf_counter() - t0
    if traced:
        record["metrics"] = tracer.metrics()
        record["layers"] = tracer.layer_seconds()
        record["bad_tours"] = tracer.failed_ops(per_config=cli_argv[0] == "tune")
        tracer.dump(out.with_name("trace.json"))
    out.write_text(json.dumps(record))
    return record["code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
