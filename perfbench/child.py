"""Child process of the benchmark: one CLI invocation, or one set-up.

The reference loop runs inside this process, before and after the
measured work, because a reference measured in the parent describes a
different moment and, for a new process, a different cache state.  The
parent times the whole process and subtracts the two reference runs; this
process writes their durations and its own timestamps as JSON to the
--result file.  Usage::

    python3 perfbench/child.py cli --result R.json [--trace] -- ARGS...
    python3 perfbench/child.py setup --result R.json --workload W --seed S --corpus DIR
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from refloop import time_reference  # noqa: E402  (imports numpy)

SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(trace: bool, argv: list[str], t_work: float, record: dict) -> int:
    import powerflow.cli

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    record["main"] = time.perf_counter()
    # imports after the first reference loop, plus those before it
    record["startup_s"] = (record["main"] - t_work) + (t_work - T_ENTRY - record["ref_before"])
    try:
        return powerflow.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.snapshot()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("cli", "setup"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--corpus")
    own, cli_argv = sys.argv[1:], []
    if "--" in own:
        split = own.index("--")
        own, cli_argv = own[:split], own[split + 1:]
    args = parser.parse_args(own)

    ref_before = time_reference()
    t_work = time.perf_counter()
    sys.path.insert(0, str(SRC))
    record = {"entry": T_ENTRY, "ref_before": ref_before}
    rc = 0
    if args.mode == "cli":
        rc = _cli(args.trace, cli_argv, t_work, record)
    else:
        import workloads

        workloads.build(args.workload, args.seed, Path(args.corpus))
    record["ref_after"] = time_reference()
    record["rc"] = rc
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
