"""impdag benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload family|sep|verify|cli --seed N \
        --seconds S --trace 0|1

impdag is imported from the ``src/`` next to this directory. The run sets
up its inputs several times, each in a forked child, and reports the median
set-up time; every set-up must give the same input fingerprint. Then it
times passes over the inputs, each in a forked child of a process that
holds only the inputs, so every pass starts with the prover's caches empty
and its peak RSS is that of the process doing the work. Passes repeat until
``--seconds`` is used up, with at least ``MIN_PASSES``; what is left of
the time goes to passes over the longest prefix of the inputs that fits, so
short inputs get more samples than the longest one leaves time for. An
input's latency is its median over the passes that ran it, and ``run_s``
is their sum.

Times are reported at a fixed host speed. The host is shared, and the same
work can take twice as long from one minute to the next, so every pass also
times a fixed piece of reference work (reference.py) between its inputs,
about every ``workloads.REFERENCE_EVERY_S``, and each input's time is
multiplied by ``reference.NOMINAL_MS`` over the mean reference time around
that input (see ``scaled_items``). Set-up is scaled the same way by
reference samples taken just before and after it.
The reference uses no impdag code, so a change to the program moves the
scaled times as much as the raw ones; the raw times are printed as well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` cycles untraced,
span-traced and memory-traced passes and prints the per-layer metrics plus
the tracing overhead (span-traced minus untraced ``run_s``, both estimated
the same way); its spans are written to ``perfbench/out/``.

Earlier lines of standard output are a human-readable report; the last
line is the JSON result. Without ``src/impdag`` the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import pickle
import statistics
import sys
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 2
SETUP_REPEATS = 3
# Reference samples taken before and after each set-up and before the import.
REFERENCE_BURST = 10
# An input's time is scaled by the reference samples taken while it ran and
# this many on either side.
REFERENCE_MARGIN = 2
# With at least this many inputs the tail percentile is p66.7 or higher.
TAIL_SAMPLES = 30

END_TO_END = (
    ("run_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("prover.prove.s", "s"),
    ("prover.prove.calls", "count"),
    ("prover.prove.nodes_out", "count"),
    ("transform.level.s", "s"),
    ("transform.level.nodes_out", "count"),
    ("transform.level.pad_ratio", "ratio"),
    ("transform.level.peak_mb", "MB"),
    ("transform.compress.s", "s"),
    ("transform.compress.nodes_out", "count"),
    ("transform.compress.image_threads", "count"),
    ("transform.compress.s_nodes", "count"),
    ("transform.compress.peak_mb", "MB"),
    ("transform.s_eliminate.s", "s"),
    ("fst.check_fst.s", "s"),
    ("fst.cleanse_via_fst.s", "s"),
    ("fst.cleanse_via_fst.threads_in", "count"),
    ("fst.cleanse_via_fst.failed", "count"),
    ("fst.cleanse_via_fst.kept_ratio", "ratio"),
    ("assignment.search_choice.s", "s"),
    ("assignment.search_choice.calls", "count"),
    ("assignment.search_choice.edges", "count"),
    ("assignment.search_choice.found_ratio", "ratio"),
    ("assignment.prov.s", "s"),
    ("assignment.prov1.s", "s"),
    ("deduction.save_deduction.s", "s"),
    ("deduction.load_deduction.s", "s"),
    ("deduction.load_deduction.bytes", "bytes"),
    ("deduction.load_deduction.distinct_formula_ratio", "ratio"),
    ("deduction.load_deduction.peak_mb", "MB"),
    ("deduction.proves_by_threads.s", "s"),
    ("deduction.proves_by_threads.overflow_ratio", "ratio"),
    ("checker.check_local_correctness.s", "s"),
    ("checker.encode.s", "s"),
    ("checker.render_tuples.s", "s"),
    ("checker.parse_tuples.s", "s"),
    ("checker.check_tuples.s", "s"),
    ("checker.decode.s", "s"),
    ("cli.startup.s", "s"),
    ("cli.prove.s", "s"),
    ("cli.compress.s", "s"),
    ("cli.cleanse.s", "s"),
    ("cli.check.s", "s"),
    ("cli.bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


def in_child(fn, cpu: int | None = None):
    """Run ``fn`` in a forked child, pinned to ``cpu`` when one is given;
    return its result and the child's resource usage. The result comes back
    pickled through a pipe, so only bytes this program wrote are unpickled.
    The child always ends with os._exit."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 0
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            payload = pickle.dumps({"ok": fn()})
        except BaseException:  # the child must report and exit whatever happened
            payload = pickle.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_end, "wb") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    message = pickle.loads(payload) if payload else {"error": f"child ended with status {status}"}
    if "error" in message:
        raise RuntimeError("benchmark child failed:\n" + message["error"])
    return message["ok"], usage


def scaled_items(r: dict) -> list[float]:
    """The pass's input latencies in ms, each scaled to the nominal host
    speed by the reference samples around it. The host's speed drifts
    within a pass as well, so a sample near the input is a better guide than
    the pass's mean."""
    samples = r["reference_ms"]
    scaled = []
    for ms, (first, end) in zip(r["items_ms"], r["items_refs"]):
        near = samples[max(0, first - REFERENCE_MARGIN):end + REFERENCE_MARGIN]
        scaled.append(ms * reference.scale(near))
    return scaled


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten inputs beyond it, as
    (value, percentile); with fewer than TAIL_SAMPLES inputs, the slowest."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("family", "sep", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import impdag from the checkout's src/, then the workloads built on
    it. Returns both modules and the import time; exits 2 when src/impdag
    is missing or another copy was imported instead."""
    if not os.path.isfile(os.path.join(SRC, "impdag", "__init__.py")):
        print(f"no impdag sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import impdag
    import workloads
    import_s = time.perf_counter() - start
    if not os.path.abspath(impdag.__file__).startswith(SRC + os.sep):
        print(f"impdag was imported from {impdag.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return impdag, workloads, import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_scale = reference.scale(reference.samples_ms(REFERENCE_BURST))
    impdag, workloads, import_s = load_program()
    print(f"impdag {impdag.__version__} from {os.path.relpath(impdag.__file__, ROOT)}, "
          f"Python {sys.version.split()[0]}")

    setup = workloads.SETUP[args.workload]

    def timed_setup(keep: bool):
        before = reference.samples_ms(REFERENCE_BURST)
        t0 = time.perf_counter()
        made = setup(args.seed)
        elapsed = time.perf_counter() - t0
        after = reference.samples_ms(REFERENCE_BURST)
        return elapsed, reference.scale(before + after), made.fingerprint, made if keep else None

    # Each set-up runs in a child, so this process holds one copy of the
    # inputs but not the heap that generating them grew, and every sample
    # starts cold.
    samples = [in_child(lambda: timed_setup(not k))[0] for k in range(SETUP_REPEATS)]
    inputs = samples[0][3]
    setup_s = import_s * import_scale + statistics.median(s * k for s, k, _, _ in samples)
    raw_setup_s = import_s + statistics.median(s for s, _, _, _ in samples)
    fingerprints = [f for _, _, f, _ in samples]
    wrong = []
    if len(set(fingerprints)) != 1:
        wrong.append(f"set-ups gave different inputs: {fingerprints}")
    print(f"inputs {args.workload} seed {args.seed}: fingerprint {inputs.fingerprint}, "
          f"mix {json.dumps(inputs.mix, sort_keys=True)}")

    # The inputs stay alive for the whole run. Freezing them keeps the garbage
    # collector in a pass from walking every input, a cost that a process
    # handling one input does not pay; its pauses land on whichever item is
    # running and move with the hash seed.
    gc.collect()
    gc.freeze()
    run_pass = workloads.PASSES[args.workload]

    def one_pass(mode: str, first: bool, count: int) -> dict:
        tracer = workloads.Tracer(mode)
        p = workloads.Pass(tracer)
        run_pass(workloads.Inputs(inputs.items[:count], inputs.fingerprint, inputs.mix), p, first)
        result = p.result()
        if tracer.on:
            result["layers"] = tracer.summary()
            result["spans"] = tracer.dump()
        return result

    schedule = ("off", "spans", "memory") if args.trace else ("off",)
    # A pass and the processes it starts stay on one CPU, so its reference
    # samples see the speed of the CPU that does its work; passes take turns
    # on the CPUs this process may use.
    cpus = sorted(os.sched_getaffinity(0))
    passes: list[tuple[str, dict]] = []

    def run(mode: str, count: int) -> float:
        start = time.perf_counter()
        cpu = cpus[len(passes) % len(cpus)]
        result, usage = in_child(lambda: one_pass(mode, not passes, count), cpu)
        result["peak_rss_mb"] = (result["children_peak_kb"] or usage.ru_maxrss) / 1024
        passes.append((mode, result))
        return time.perf_counter() - start

    everything = len(inputs.items)
    begin = time.perf_counter()
    while True:
        cycle = sum(run(mode, everything) for mode in schedule)
        # The first pass also confirms known answers, so the last cycle is
        # the better guess for the next one.
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + cycle - begin > args.seconds):
            break
    if not args.trace:
        # Predict a prefix pass from the inputs' share of the last full pass.
        last = passes[-1][1]["items_ms"]
        per_ms = cycle / max(sum(last), 1e-9)
        while True:
            left = args.seconds - (time.perf_counter() - begin)
            count = sum(1 for ms in itertools.accumulate(last) if ms * per_ms <= left)
            if count == 0:
                break
            run("off", count)

    by_mode = {m: [r for mode, r in passes if mode == m] for m in schedule}
    untraced = by_mode["off"]
    full = [r for r in untraced if len(r["items_ms"]) == everything]
    # Every pass repeats the same operations on the same inputs, so the
    # counts are those of one pass: they depend on the seed alone, not on
    # how many passes the time allowed.
    reference_pass = passes[0][1]
    attempted = reference_pass["attempted"]
    failed = len(reference_pass["failed_ops"])
    for index, (_, r) in enumerate(passes):
        count = len(r["items_ms"])
        wrong.extend(f"pass {index}: {w}" for w in r["wrong"])
        if r["outputs"] != reference_pass["outputs"][:len(r["outputs"])]:
            wrong.append(f"pass {index}: outputs differ from pass 0")
        if r["failed_ops"] != [f for f in reference_pass["failed_ops"] if f[0] < count]:
            wrong.append(f"pass {index}: failures differ from pass 0")
        if count == everything and r["attempted"] != attempted:
            wrong.append(f"pass {index}: operations differ from pass 0")

    # Each input's latency is its median over the passes, so a burst of
    # machine noise in one pass moves no percentile on its own.
    scaled = [scaled_items(r) for r in untraced]
    latencies = [statistics.median(items[i] for items in scaled if len(items) > i)
                 for i in range(everything)]
    run_s = sum(latencies) / 1000
    raw_run_s = statistics.median(r["run_s"] for r in full)
    print(f"passes: {len(passes)} ({', '.join(schedule)}) over {everything} inputs, "
          f"{len(untraced) - len(full)} of them over a prefix "
          f"({[len(r['items_ms']) for r in untraced[len(full):]]} inputs), "
          f"set-up samples {[round(s, 4) for s, _, _, _ in samples]} s + import {import_s:.4f} s")
    print(f"host speed: reference {reference.NOMINAL_MS} ms nominal, mean per pass "
          f"{[round(statistics.fmean(r['reference_ms']), 3) for r in untraced]} ms; set-up scale "
          f"{[round(k, 3) for _, k, _, _ in samples]}; "
          f"unscaled run_s {raw_run_s:.4f} s, setup_s {raw_setup_s:.4f} s")
    print(f"pass mix: {json.dumps(untraced[0]['mix'], sort_keys=True)}")
    print(f"failed_share = {failed / attempted:.6f} ({failed} of {attempted} operations "
          f"in a pass)")
    for message in wrong[:10]:
        print(f"WRONG: {message}")

    if args.trace:
        spans = by_mode["spans"]
        memory = by_mode["memory"]
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                # Traced passes take no reference samples: compare raw times.
                value = statistics.median(r["run_s"] for r in spans) - raw_run_s
            else:
                source = memory if name.endswith(".peak_mb") else spans
                value = statistics.median(r["layers"].get(name, 0.0) for r in source)
            metrics[name] = {"value": value, "unit": unit}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "passes": [
                        {"mode": mode, "run_s": r["run_s"], "spans": r.get("spans", [])}
                        for mode, r in passes
                    ],
                },
                fh,
            )
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        tail_ms, tail_pct = tail(latencies)
        print(f"item latencies: medians over {len(untraced)} passes of {len(latencies)} inputs; "
              f"item_tail_ms is p{tail_pct:.1f}"
              + (" (the slowest input: too few inputs for a tail)" if tail_pct == 100 else ""))
        values = {
            "run_s": run_s,
            "item_p50_ms": statistics.median(latencies),
            "item_tail_ms": tail_ms,
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
