"""Benchmark command for jacograph.

    python3 perfbench/run.py --workload {structure,chroma,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of the seed's operation list
runs in a fresh interpreter (``worker.py --pass``), single-threaded, as a
closed loop with one client, so no state of the package carries over
between passes.  Passes go on for at least ``--seconds`` and
``MIN_PASSES`` passes.  An operation's latency is its fastest run at full
machine speed over the passes (``full_speed_time``), judged by probes of
the machine's speed against the fastest probe seen in the checkout
(``_reference_probe``); ``setup_s`` is the
median set-up time, scaled to full speed by its probes, of every pass and
of ``2 * SETUP_ONLY`` processes that only set up.  A last process
(``worker.py --verify``) checks every output in full.  With
``--trace 1`` the passes run with spans and counters around the package's
public functions and the per-layer metrics, medians over the passes, are
reported; the spans of the first pass go to ``perfbench/results/``.

The last line of standard output is the result as JSON; the line before
it describes the run (passes, sample count, throughput).  Exit status is
0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = RESULTS / "reference-probe-1ms.json"
MIN_PASSES = 4
MIN_OPS = 100
# set-up-only processes before and after the passes, beside the set-up of
# every pass, so that the set-up samples span the run
SETUP_ONLY = 2
# a run whose probes before and after it are within this ratio of the
# reference probe ran at full speed
FULL_SPEED_RATIO = 1.2
PASS_TIMEOUT_S = 40
SETUP_TIMEOUT_S = 10
VERIFY_TIMEOUT_S = 60
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def hd_quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    the order statistics, which does not jump when two neighbouring
    operations swap ranks."""
    from scipy.special import betainc

    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(w * x for w, x in zip(edges[1:] - edges[:-1], sorted_values)))


def _reference_probe(fastest: float) -> float:
    """The fastest probe of this run or of any earlier run in this
    checkout, kept in ``REFERENCE``: neighbours on a shared host can slow
    every probe of a whole run, and the full-speed time is a property of
    the host, not of the run."""
    try:
        fastest = min(fastest, json.loads(REFERENCE.read_text())["probe_s"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    tmp = REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps({"probe_s": fastest}))
    tmp.replace(REFERENCE)
    return fastest


def full_speed_time(samples: list, ref: float) -> tuple[float, bool]:
    """The time of one operation at full machine speed, from
    its ``(seconds, (probe_before, probe_after))`` runs: the fastest run
    whose probes were within FULL_SPEED_RATIO of the reference probe
    ``ref``, or, when no run was, the fastest run scaled by ``ref`` over
    the mean of its probes.  Also says whether it is the scaled figure."""
    fast = [t for t, probes in samples if max(probes) <= FULL_SPEED_RATIO * ref]
    if fast:
        return min(fast), False
    return min(t * 2 * ref / sum(probes) for t, probes in samples), True


def _worker(args, *extra: str, timeout: float, stdin: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    if args.tiny:
        cmd.append("--tiny")
    # numerical libraries used by the output checks stay on one thread;
    # one hash seed makes output fingerprints comparable across processes
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, input=stdin, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("structure", "chroma", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small operation list, for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "jacograph" / "__init__.py").is_file():
        print(f"error: no jacograph package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spares = 0 if args.trace else SETUP_ONLY  # a traced run reports no setup_s
    setups = [_worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S) for _ in range(spares)]
    passes: list[dict] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        extra = ("--trace-file", str(RESULTS / f"{stem}-spans.json")) \
            if args.trace and not passes else ()
        passes.append(_worker(args, "--pass", *extra, timeout=PASS_TIMEOUT_S))
    timed_s = perf_counter() - start
    setups += [_worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S)
               for _ in range(spares)] + passes
    n_ops = len(passes[0]["latencies"])
    if n_ops < MIN_OPS and not args.tiny:
        raise SystemExit(f"{n_ops} operations in a pass, fewer than {MIN_OPS}")

    # an op's fingerprint is its first timed one; it must not change
    prints = [next((p["prints"][i] for p in passes if p["prints"][i] is not None), None)
              for i in range(n_ops)]
    checked = _worker(args, "--verify", timeout=VERIFY_TIMEOUT_S, stdin=json.dumps(prints))
    unsteady = {i for p in passes for i, fp in enumerate(p["prints"])
                if fp is not None and fp != prints[i]}
    bad = set(checked["wrong"]) | unsteady
    raised_runs = [sum(p["latencies"][i] is None for p in passes) for i in range(n_ops)]
    # each timed run of an op counts once: it raised, or its answer is wrong
    failed = sum(raised_runs) + sum(len(passes) - raised_runs[i] for i in bad)
    # outputs of the ops that did not fail are right, and an op that
    # raised during verification also raised when timed
    correct = not bad and all(raised_runs[i] for i in checked["raised"])

    ref = min(min(pr) for p in passes for pr in p["probes"] if pr is not None)
    ref = _reference_probe(ref)
    per_op = []
    for i in range(n_ops):
        runs = [(p["latencies"][i], p["probes"][i]) for p in passes
                if p["latencies"][i] is not None]
        per_op.append(full_speed_time(runs, ref) if runs else (None, False))
    latencies = sorted(t for t, _ in per_op if t is not None)
    # a set-up of 0.1 to 0.4 s rarely runs at full speed from end to end,
    # so each sample is scaled by its probes and the median reported
    setup_s = statistics.median(x["setup_s"] * 2 * ref / sum(x["setup_probes"])
                                for x in setups)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": hd_quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": hd_quantile(latencies, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    if args.trace:
        metrics = {name: {"value": statistics.median(p["per_layer"][name]["value"]
                                                     for p in passes),
                          "unit": metric["unit"]}
                   for name, metric in passes[0]["per_layer"].items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    info = {"workload": args.workload, "seed": args.seed, "ops_per_pass": n_ops,
            "passes": len(passes), "samples": len(latencies), "timed_s": timed_s,
            "ops_per_s": values["ops_per_s"],
            "scaled_share": sum(scaled for _, scaled in per_op) / n_ops,
            "ref_probe_s": ref, "setup_samples_s": [x["setup_s"] for x in setups],
            "notes": ([n for p in passes for n in p["notes"]] + checked["notes"])[:20]}
    if args.workload == "structure":
        info["repeat_share"] = passes[0]["repeat_share"]
    result = {"correct": correct, "attempted": len(passes) * n_ops, "failed": failed,
              "metrics": metrics}
    record = {"info": info, **result, "per_op_latency_s": per_op,
              "per_pass_latency_s": [p["latencies"] for p in passes],
              "per_pass_probes_s": [p["probes"] for p in passes],
              "setup_probes_s": [x["setup_probes"] for x in setups]}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
