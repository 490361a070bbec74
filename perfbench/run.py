"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide_update --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` runs one untraced and one traced round and prints
the per-layer breakdown.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit codes:
0 ok, 2 bad arguments or no program to measure, 3 golden-invariant
mismatch.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: String hashing is randomised per process by default, and the dict and
#: set layouts it produces move wall time by several per cent from one
#: process to the next.  Runs pin it so they differ only by --seed.
HASH_SEED = "0"
#: Set-up samples a run takes when its rounds alone give fewer and the
#: wall budget still has room.
MIN_SETUPS = 5


def _import_program():
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def measure(spec, inputs, seconds: float, trace: bool, start: float):
    """Run the rounds of one run; returns ``(rounds, setups, peak_rss_mb)``.

    Untraced: identical rounds while another one fits in ``seconds``
    counted from ``start`` (at least one), then extra set-ups until there
    are ``MIN_SETUPS`` samples or the budget is spent.  Traced: one plain
    round and the same round traced.
    """
    from harness import run_round, time_setup
    from tracing import Tracer

    def fits(more: float) -> bool:
        return perf_counter() - start + more <= seconds

    rounds = [run_round(spec, inputs)]
    # peak memory of one round: later rounds only add allocator noise
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        rounds.append(run_round(spec, inputs, Tracer()))
        return rounds, [], peak_rss_mb
    longest = rounds[0].wall_s + rounds[0].check_s
    while fits(longest):
        rounds.append(run_round(spec, inputs))
        longest = max(longest, rounds[-1].wall_s + rounds[-1].check_s)
    setups = [r.setup_ref_s for r in rounds]
    longest_setup = max(r.setup_s for r in rounds)
    while len(setups) < MIN_SETUPS and fits(longest_setup):
        setups.append(time_setup(spec, inputs))
    return rounds, setups, peak_rss_mb


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall budget: rounds repeat while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    _import_program()
    from harness import GoldenMismatch
    from load import WORKLOADS, make_inputs
    from metrics import end_to_end, per_layer, wall_figures

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = make_inputs(spec, args.seed)
    try:
        rounds, setups, peak_rss_mb = measure(
            spec, inputs, args.seconds, bool(args.trace), start
        )
    except GoldenMismatch as exc:
        print(f"GOLDEN INVARIANT VIOLATED: {exc}", file=sys.stderr)
        return 3
    signature = rounds[0].sim_signature()
    deterministic = all(r.sim_signature() == signature for r in rounds)
    attempted = sum(r.recorder.attempted for r in rounds)
    failed = sum(r.recorder.failed for r in rounds)
    if args.trace:
        metrics = per_layer(rounds[1], rounds[0])
    else:
        metrics = end_to_end(rounds, setups, peak_rss_mb)
        metrics["error_frac"] = (failed / attempted, "ratio")
    print(f"# workload={spec.name} seed={args.seed} rounds={len(rounds)} "
          f"deterministic={deterministic}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in wall_figures(rounds).items():
            print(f"# {name} {value:.6g} {unit} (not rescaled)")
    metrics.pop("error_frac", None)  # carried by failed/attempted below
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
