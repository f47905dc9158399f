"""One measurement process: set-up and one timed pass, or the verification.

Run by ``run.py`` in a fresh interpreter for every pass, so that nothing
the package keeps in memory (a cache, a memo) carries over from one pass
to the next.

``--pass``: set-up is timed from the first statement of this file after
the probe until the first timed operation: importing the package,
generating the operation list and one untimed warm-up run of a fixed
list.  Then the seed's operation list runs once, timing every call into
the package, with a probe of the machine's speed right before and after
each operation.  Peak memory is read after the pass.  Prints each
operation's latency, probes and output fingerprint, the operations that
raised, and with ``--trace 1`` the per-layer metrics of the pass.

``--setup-only``: only the set-up and its probes.

``--verify``: reruns every operation untimed, checks its output in full
against ``checks``, and requires its fingerprint to equal the timed one
read as a JSON list from standard input.

The result is one JSON line on standard output.
"""

from time import perf_counter


def probe() -> float:
    """Time of a fixed pure-Python loop of about 1 ms: the machine's
    current speed, which neighbours on a shared host lower by up to 1.5x
    in bursts of a few milliseconds, for seconds to minutes at a time.
    ``run.py`` compares it with the fastest probe seen."""
    t0 = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    return perf_counter() - t0


PROBE_BEFORE = probe()
T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports the package)


def timed_pass(ops, tracer=None) -> dict:
    """Run ``ops`` once; each op's latency (None when it raised) and
    output fingerprint."""
    latencies: list = [None] * len(ops)
    probes: list = [None] * len(ops)
    prints: list = [None] * len(ops)
    notes: list[str] = []
    state = workloads.State()
    gc.collect()
    for idx, op in enumerate(ops):
        before = probe()
        try:
            latency, out = workloads.run(op, state)
        except Exception as exc:  # an operation that raises counts as failed
            notes.append(f"{op!r}: {type(exc).__name__}: {exc}")
            continue
        latencies[idx] = latency
        probes[idx] = (before, probe())
        if tracer is not None and op[0] == "cli":
            tracer.count("cli.output_bytes", len(out[1]))
        prints[idx] = workloads.fingerprint(op, out)
        del out
    return {"latencies": latencies, "probes": probes, "prints": prints, "notes": notes}


def verify(ops, prints) -> dict:
    """Rerun each operation untimed and check its output in full, and that
    its timed output had the same fingerprint.  Returns the ops answered
    wrongly, the ops that raised, and notes."""
    import checks

    ref = checks.Reference()
    state = workloads.State()
    wrong: list[int] = []
    raised: list[int] = []
    notes: list[str] = []
    for idx, op in enumerate(ops):
        try:
            _, out = workloads.run(op, state)
        except Exception as exc:
            raised.append(idx)
            notes.append(f"{op!r}: {type(exc).__name__}: {exc}")
            continue
        try:
            checks.check(op, out, ref)
            checks.expect(prints[idx] in (None, workloads.fingerprint(op, out)),
                          "timed output differs from the checked output")
        except checks.CheckError as exc:
            wrong.append(idx)
            notes.append(f"{op!r}: {exc}")
    return {"wrong": wrong, "raised": raised, "notes": notes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-file")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pass", dest="timed", action="store_true")
    mode.add_argument("--verify", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.generate(args.workload, args.seed, args.tiny)
    if args.verify:
        print(json.dumps(verify(ops, json.load(sys.stdin))))
        return 0

    state = workloads.State()
    for op in workloads.warmup_ops(args.workload):
        workloads.run(op, state)
    del state
    setup_s = perf_counter() - T0
    setup = {"setup_s": setup_s, "setup_probes": (PROBE_BEFORE, probe())}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = timed_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(setup)
    result["repeat_share"] = workloads.repeat_share(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["per_layer"] = tracer.per_layer_metrics()
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
