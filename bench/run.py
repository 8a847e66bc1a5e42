"""Closed-loop benchmark for rsol: one process, one thread, one request
outstanding at a time.

    python3 bench/run.py --workload eval --seed 1 --seconds 10 --trace 0

Workloads (each a module `w_<name>.py` next to this file):

    eval         second-order model checking over exact ranges
    materialize  `rsol eval --theta F --bound B` shaped requests
    oracles      automorphisms, orbits, rank types, Leibniz reduction
    prove        proof kernel, deduction, spot checks, chain construction

The inputs come from the seed alone.  Set-up (importing rsol afresh and
generating the inputs) runs at least five times and reports its median.
The timed phase then sends rounds of requests until `--seconds` of
request time have passed, stopping only at the end of a round, so every run completes whole
rounds and the mix of request kinds is the same in every run.  Each
distinct request's output is checked against an independent reference
when it first appears, with the clock paused; a request that raises
counts as failed, by exception type.

End-to-end metrics, from `--trace 0` runs.  Every time is scaled to a
reference host speed by a calibration loop (see calibrate.py): the
shared hosts this runs on drift in speed by half over a minute.

    throughput_rps   answered requests per second of request time
    latency_p50_ms   percentiles of request latency (Harrell-Davis
    latency_p90_ms   estimates); a failed request ranks behind every
                     answered one (sample count: record)
    setup_s          median set-up time
    peak_rss_mb      peak resident set of this process
    success_ratio    answered / attempted, that is 1 - failed ratio; the
                     failed ratio itself is 0 on most workloads, and a
                     relative bound on a metric that can be 0 means nothing

With `--trace 1` the run is split in two halves over the same requests:
an untraced half and a traced half.  Per-layer metrics come from the
spans of the traced half; their throughput ratio is the tracing
overhead.  The traced run also sweeps the exact oracles, materialization
and enumeration over domain size or bound.  Spans and the run record are
written to `bench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

from calibrate import ScaledClock, speed_factor
from common import digest, percentile
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("eval", "materialize", "oracles", "prove")
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 9, 2.0
MIN_REQUESTS = 100          # per timed phase, so p90 has >= 10 samples above it
DIGEST_REQUESTS = 100       # verdicts folded into the verdict digest
MAX_LISTED = 50             # failed operations and problems kept in the record

# Per-layer metrics reported by every traced run, whether or not the
# workload touches the layer (an untouched layer reports 0).
LAYER_METRICS = {
    "structures.eval": ("calls", "range_size"),
    "structures.full_so": (),
    "theta.enumerate": ("members", "members_per_s"),
    "structures.materialize": ("param_tuples", "relations", "yield"),
    "structures.oracle.rank": ("classes",),
    "structures.oracle.automorphisms": ("count",),
    "structures.oracle.orbits": (),
    "structures.reduce": (),
    "calculus.check": ("lines", "lines_per_s"),
    "calculus.deduce": ("lines_out",),
    "calculus.spot": ("instances",),
    "boolean.rs": ("steps",),
    "boolean.compat": ("inspected",),
    "boolean.family": (),
    "formulas.parse": ("nodes",),
    "formulas.format": (),
}
SWEEPS = ("oracle.rank", "oracle.automorphisms", "oracle.orbits",
          "materialize", "enumerate")


def _purge_rsol() -> None:
    for name in [m for m in sys.modules if m == "rsol" or m.startswith("rsol.")]:
        del sys.modules[name]


def fresh_setup(module, seed: int, tracer):
    """Import rsol from scratch and build the workload's inputs, timed."""
    _purge_rsol()
    gc.collect()
    start = perf_counter()
    wl = module.Workload(seed, tracer)
    return wl, perf_counter() - start


def run_phase(wl, tracer, seconds: float, seen: dict, checked: set, problems: list):
    """Send whole rounds until `seconds` of request time have passed.

    Request times are scaled by `ScaledClock`.  `seen` maps a pool
    position to the first outcome there; a later outcome at the same
    position must match it.  Each output is checked when its inputs first
    appear (`checked` holds their keys), outside the timed work, so that
    no output has to be kept until the end.
    """
    # flat arrays (the clock keeps the request times in one too): a small
    # object per request would outlive the big short-lived ones around it
    # and pin their memory, so peak RSS would grow with the number of
    # requests a run gets through
    clock = ScaledClock()
    failed = array("b")
    failures: dict = {}
    failed_ops = []
    verdicts = []
    rounds = wl.rounds
    r = 0
    wall = 0.0
    while True:
        ri = r % len(rounds)
        # one collector pass per round, outside the timing, so that every
        # round starts free of the cyclic garbage the last one left
        gc.collect()
        for j, req in enumerate(rounds[ri]):
            n = len(clock.walls)
            tracer.request = n
            t0 = perf_counter()
            try:
                with tracer.span("request"):
                    verdict, detail = wl.run(req, tracer)
                err = None
            except Exception as exc:  # a failed request must not end the run
                verdict, detail, err = None, None, type(exc).__name__
            t1 = perf_counter()
            clock.add(t1 - t0)
            failed.append(err is not None)
            wall += t1 - t0
            if n < DIGEST_REQUESTS:
                verdicts.append(err or verdict)
            if err is not None:
                if err not in failures:
                    print(f"[{wl.name}] {req.kind} failed: {err}", file=sys.stderr)
                failures[err] = failures.get(err, 0) + 1
                if len(failed_ops) < MAX_LISTED:
                    failed_ops.append({"request": n, "kind": req.kind, "error": err,
                                       "inputs": req.key[:120]})
            outcome = (verdict, err)
            first = seen.get((ri, j))
            if first is None:
                seen[(ri, j)] = outcome
                if err is None and req.key not in checked:
                    checked.add(req.key)
                    why = wl.verify(req, verdict, detail)
                    if why is not None:
                        problems.append(f"{req.kind}: {why} [{req.key[:200]}]")
            elif first != outcome:
                problems.append(f"request {ri}/{j} ({req.kind}) gave "
                                f"{err or verdict!r}, earlier {first[1] or first[0]!r}")
            # free this output now: kept to the next assignment, it would be
            # freed inside the next request's timing and would sit beside
            # that request's memory (9! permutations on oracles)
            detail = None
        r += 1
        if wall >= seconds and len(clock.walls) >= MIN_REQUESTS:
            break
    latencies = clock.scaled()
    return {"elapsed": sum(latencies), "wall": wall, "latencies": latencies,
            "failed": failed,
            "failures": failures, "failed_ops": failed_ops, "verdicts": verdicts,
            "rounds": r}


def end_to_end(phase: dict, setup_s: float) -> dict:
    lat = phase["latencies"]
    ok = sorted(t for t, bad in zip(lat, phase["failed"]) if not bad)

    def quantile(p):
        # a failed request ranks behind every answered one (it missed any
        # latency limit): the p-quantile of all requests is the
        # p*n/answered quantile of the answered ones, and reads as the
        # slowest request when it lands on a failure
        q = p * len(lat) / len(ok) if ok else 1.0
        return (percentile(ok, q) if q < 1.0 else max(lat)) * 1000.0

    return {
        "throughput_rps": (throughput(phase), "1/s"),
        "latency_p50_ms": (quantile(0.5), "ms"),
        "latency_p90_ms": (quantile(0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "success_ratio": (len(ok) / len(lat), "ratio"),
    }


def per_layer(tracer, wl, untraced: dict, traced: dict, sweeps: dict) -> dict:
    totals = tracer.layer_totals()
    # span times are wall times; scale them as the traced half's were
    scale = traced["elapsed"] / traced["wall"]
    out = {}
    for layer, counts in LAYER_METRICS.items():
        agg = totals.get(layer, {"calls": 0, "self_ms": 0.0, "counts": {}})
        agg["self_ms"] *= scale
        c = agg["counts"]
        out[f"{layer}.self_ms"] = (agg["self_ms"], "ms")
        for name in counts:
            if name == "members_per_s":
                secs = agg["self_ms"] / 1000.0
                out[f"{layer}.{name}"] = (c.get("members", 0) / secs if secs else 0.0, "1/s")
            elif name == "lines_per_s":
                secs = agg["self_ms"] / 1000.0
                out[f"{layer}.{name}"] = (c.get("lines", 0) / secs if secs else 0.0, "1/s")
            elif name == "yield":
                tup = c.get("param_tuples", 0)
                out[f"{layer}.yield"] = (c.get("relations", 0) / tup if tup else 0.0, "ratio")
            else:
                out[f"{layer}.{name}"] = (c.get(name, 0), "count")
    # dominance is judged on the request traffic of the traced half
    req_totals = tracer.layer_totals(skip_requests=("setup",))
    total = sum(a["self_ms"] for a in req_totals.values())
    dom = sum(a["self_ms"] for name, a in req_totals.items()
              if name.startswith(wl.dominant))
    out["trace.dominant_share"] = (dom / total if total else 0.0, "ratio")
    out["trace.overhead"] = (throughput(traced) / throughput(untraced), "ratio")
    for case in SWEEPS:
        out[f"sweep.{case}.frontier"] = (sweeps.get(case, {}).get("frontier", 0), "count")
    return out


def throughput(phase: dict) -> float:
    """Answered requests per (scaled) second of request time."""
    ok = len(phase["failed"]) - sum(phase["failed"])
    return ok / phase["elapsed"]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rsol" / "__init__.py").is_file():
        print(f"rsol sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    module = importlib.import_module(f"w_{args.workload}")

    tracer = Tracer() if args.trace else NullTracer()
    problems: list = []
    # a different seed must build different inputs; built first and dropped,
    # so that no more than one input set is ever alive (peak_rss_mb)
    other = module.Workload(args.seed + 1, NullTracer())
    other_digest = digest(r.key for rnd in other.rounds for r in rnd)
    other = None
    setup_times, request_digests = [], []
    wl = None
    # set up at least SETUP_MIN times, and more while they are quick
    while len(setup_times) < SETUP_MIN or (
            len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S):
        wl = None  # drop the previous inputs before building new ones
        before = speed_factor()
        wl, t = fresh_setup(module, args.seed, NullTracer())
        setup_times.append(t * (before + speed_factor()) / 2)
        request_digests.append(digest(r.key for rnd in wl.rounds for r in rnd))
    if args.trace:
        # one more set-up, traced, for the spans of set-up work
        wl = None
        tracer.request = "setup"
        wl, _ = fresh_setup(module, args.seed, tracer)
    if len(set(request_digests)) != 1:
        problems.append("the same seed built different request lists")
    if other_digest == request_digests[0]:
        problems.append("a different seed built the same request list")
    setup_s = statistics.median(setup_times)
    # the inputs live for the whole run; keeping them out of the collector's
    # full passes stops a large input set (prove holds 131,072 algebra
    # entries) from turning every full collection into a long pause
    gc.collect()
    gc.freeze()

    seen: dict = {}
    checked: set = set()
    if args.trace:
        untraced = run_phase(wl, NullTracer(), args.seconds / 2, seen, checked, problems)
        measured = run_phase(wl, tracer, args.seconds / 2, seen, checked, problems)
    else:
        untraced = None
        measured = run_phase(wl, tracer, args.seconds, seen, checked, problems)

    sweeps = wl.sweep() if args.trace else {}

    phases = [p for p in (untraced, measured) if p is not None]
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(sum(p["failures"].values()) for p in phases)
    failures: dict = {}
    for p in phases:
        for k, v in p["failures"].items():
            failures[k] = failures.get(k, 0) + v
    if args.trace:
        metrics = per_layer(tracer, wl, untraced, measured, sweeps)
    else:
        metrics = end_to_end(measured, setup_s)

    first = phases[0]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "request_digest": request_digests[0],
        "verdict_digest": digest(first["verdicts"]),
        "setup_times_s": setup_times, "rounds": [p["rounds"] for p in phases],
        "timed_wall_s": [p["wall"] for p in phases],
        "speed_scale": [p["elapsed"] / p["wall"] for p in phases],
        "pool_rounds": len(wl.rounds),
        "samples": len(measured["latencies"]), "distinct_checked": len(checked),
        "failures_by_type": failures,
        "failed_ops": [op for p in phases for op in p["failed_ops"]][:MAX_LISTED],
        "problems": problems[:MAX_LISTED],
        "sweeps": sweeps, "metrics": {k: v[0] for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(record), file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
