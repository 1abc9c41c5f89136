"""Benchmark of the deltiling engine: one workload per run.

    python3 bench/run.py --workload derive|grow|ensemble|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  A run sets up (timed as setup_s), repeats whole rounds of its
workload while the next round is expected to end within --seconds (at
least one round), checks the outputs of the last round, and prints a
run record and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md).  Times are rescaled to the reference machine's speed by
tracing.SpeedClock.  The exit code is 1 when an output check fails and 2
when the checkout has no deltiling sources.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("derive", "grow", "ensemble")
SETUP_SAMPLES = 3

# name -> unit; the order is the order of the printed report
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "field.mul_calls": "count", "field.mul_s": "s",
    "field.mul_zeta_calls": "count", "field.mul_zeta_s": "s",
    "field.inv_calls": "count", "field.inv_s": "s",
    "field.real_sign_calls": "count", "field.mpmath_escalations": "count",
    "arrangement.build_s": "s", "prototiles.catalog_s": "s",
    "substitution.match_triangles_calls": "count",
    "substitution.derive_rules_s": "s", "substitution.edge_words_s": "s",
    "substitution.inflate_s": "s", "substitution.inflate_tiles_per_s": "tiles/s",
    "substitution.verify_s": "s", "substitution.verify_tiles_per_s": "tiles/s",
    "patchio.export_s": "s", "patchio.import_s": "s", "patchio.bytes": "bytes",
    "svg.render_s": "s", "svg.bytes": "bytes",
    "random.find_flippable_calls": "count", "random.find_flippable_s": "s",
    "random.tiles_scanned_per_flip": "tiles",
    "random.rule_family_s": "s", "random.random_substitution_s": "s",
    "analysis.pisot_table_s": "s", "analysis.tile_frequencies_s": "s",
    "rulesets_per_s": "1/s", "tiles_per_s": "tiles/s", "flips_per_s": "1/s",
    "rsubst_tiles_per_s": "tiles/s",
    "trace.overhead": "ratio",
}
# workload throughputs: each is measured on one workload (see README.md)
RATES = ("rulesets_per_s", "tiles_per_s", "flips_per_s", "rsubst_tiles_per_s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time the set-up of a fresh process and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def import_program():
    """Import deltiling from ./src of this checkout, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "deltiling", "__init__.py")):
        print(f"error: no deltiling sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import deltiling
    if os.path.dirname(os.path.dirname(os.path.abspath(deltiling.__file__))) != SRC:
        print("error: deltiling was imported from outside this checkout",
              file=sys.stderr)
        sys.exit(2)


def git_sha():
    """HEAD of the checkout's .git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(args):
    """Set-up time of a fresh process that only sets up."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise RuntimeError("a set-up sample failed")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, tracer, seconds):
    """Whole rounds while the next one should end within `seconds`.

    Returns the last round's outputs, the (start, end) of each round, the
    failed operations and the span mark at the start of each round.
    """
    spans, failed, marks = [], 0, []
    out = None
    start = time.perf_counter()
    while True:
        out = None  # let the previous round's outputs go before the next
        marks.append(tracer.mark())
        t0 = time.perf_counter()
        out = workload.round(tracer)
        spans.append((t0, time.perf_counter()))
        failed += workload.failed(out)
        if 2 * spans[-1][1] - t0 - start > seconds:
            return out, spans, failed, marks


def rescaled(clock, rounds):
    """A run_rounds result with its round times rescaled by `clock`."""
    out, spans, failed, marks = rounds
    return out, [clock.scaled(a, b) for a, b in spans], failed, marks


def round_rates(tr, wl, bounds, times):
    """Median over rounds of each workload throughput."""
    per_key = {}
    for start, stop, round_s in zip(bounds, bounds[1:], times):
        for key, value in wl.rates(tr, start, stop, round_s).items():
            per_key.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in per_key.items()}


def layer_metrics(tr, wl, untraced, traced, setup_counts):
    """Per-layer metrics of a traced run.

    Stage times come from the benchmark's own spans in the untraced rounds
    (per-round means), or from the set-up for stages that only run there;
    counters and the program-side spans (match_triangles, find_flippable)
    from the traced set-up plus the per-round mean of the traced rounds.
    """
    _, u_times, _, u_marks = untraced
    _, t_times, _, t_marks = traced
    n_u, n_t = len(u_times), len(t_times)
    u_start, t_start = u_marks[0], t_marks[0]

    def phase(name):
        spans = tr.since(u_start, name, t_start)
        if spans:
            return spans, n_u
        return tr.since(0, name, u_start), 1

    def stage(name):
        spans, n = phase(name)
        return sum(map(tr.duration, spans)) / n

    def sized(name):
        spans, n = phase(name)
        return sum(s[4] or 0 for s in spans) / n

    def rate(name):
        busy = stage(name)
        return sized(name) / busy if busy else 0.0

    def count(key):
        return setup_counts["calls"][key] + tr.calls[key] / n_t

    def busy(key):
        return setup_counts["busy"][key] + tr.busy[key] / n_t

    flips = [i for i in range(t_start, len(tr.spans))
             if tr.spans[i][0] == "random.find_flippable"
             and tr.inside(i, "random.rearrangement_sample")]
    n_flips = wl.flip_steps * n_t
    rates = round_rates(tr, wl, u_marks + [t_start], u_times)
    values = {
        "field.mul_calls": count("mul"), "field.mul_s": busy("mul"),
        "field.mul_zeta_calls": count("mul_zeta"),
        "field.mul_zeta_s": busy("mul_zeta"),
        "field.inv_calls": count("inv"), "field.inv_s": busy("inv"),
        "field.real_sign_calls": count("real_sign"),
        "field.mpmath_escalations": count("mpc"),
        "arrangement.build_s": stage("arrangement.get_arrangement"),
        "prototiles.catalog_s": stage("prototiles.prototile_catalog"),
        "substitution.match_triangles_calls":
            count("substitution.match_triangles"),
        "substitution.derive_rules_s": stage("substitution.derive_rules"),
        "substitution.edge_words_s": stage("substitution.derive_edge_words"),
        "substitution.inflate_s": stage("substitution.inflate"),
        "substitution.inflate_tiles_per_s": rate("substitution.inflate"),
        "substitution.verify_s": stage("substitution.verify_face_to_face"),
        "substitution.verify_tiles_per_s":
            rate("substitution.verify_face_to_face"),
        "patchio.export_s": stage("patchio.export_patch"),
        "patchio.import_s": stage("patchio.import_patch"),
        "patchio.bytes": sized("patchio.export_patch"),
        "svg.render_s": stage("svg.render_patch"),
        "svg.bytes": sized("svg.render_patch"),
        "random.find_flippable_calls": count("random.find_flippable"),
        "random.find_flippable_s":
            tr.seconds("random.find_flippable", t_start) / n_t,
        "random.tiles_scanned_per_flip":
            sum(tr.spans[i][4] for i in flips) / n_flips if n_flips else 0.0,
        "random.rule_family_s": stage("random.random_rule_family"),
        "random.random_substitution_s": stage("random.random_substitution"),
        "analysis.pisot_table_s": stage("analysis.pisot_table"),
        "analysis.tile_frequencies_s": stage("analysis.tile_frequencies"),
        **{key: rates.get(key, 0.0) for key in RATES},
        "trace.overhead":
            statistics.median(t_times) / statistics.median(u_times),
    }
    return values


def measure(args, clock, outdir):
    """Set up and run the rounds while `clock` samples the machine's speed.

    Returns the workload, its tracer, the rescaled set-up time, the
    counters of a traced set-up (else None) and the phases: run_rounds
    results with rescaled times, one untraced phase, or an untraced and a
    traced one when traced.  Times are rescaled once the clock has
    stopped, when every pass is known.
    """
    from tracing import Instrumentation, Tracer
    from workloads import WORKLOADS

    tr = Tracer(clock)
    wl = WORKLOADS[args.workload](args.seed, outdir)
    counts, phases = None, []
    with clock:
        if args.trace:
            with Instrumentation(tr):
                wl.setup(tr)
        else:
            wl.setup(tr)
        setup_end = time.perf_counter()
        if args.trace and not args.setup_only:
            counts = {"calls": Counter(tr.calls), "busy": Counter(tr.busy)}
            tr.calls.clear()
            tr.busy.clear()
            phases.append(run_rounds(wl, tr, args.seconds))
            with Instrumentation(tr):
                phases.append(run_rounds(wl, tr, args.seconds))
        elif not args.setup_only:
            phases.append(run_rounds(wl, tr, args.seconds))
    phases = [rescaled(clock, phase) for phase in phases]
    return wl, tr, clock.scaled(T_START, setup_end), counts, phases


def run_one(args):
    from tracing import REFERENCE_PASS_S, SpeedClock

    import_program()
    from checks import CheckError

    outdir_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir_root, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-",
                                     dir=outdir_root) as outdir:
        clock = SpeedClock()
        wl, tr, setup_s, setup_counts, phases = measure(args, clock, outdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced, traced = phases
            out = traced[0]
            times = untraced[1] + traced[1]
            failed = untraced[2] + traced[2]
        else:
            (out, times, failed, marks), = phases
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def check():
            try:
                wl.check(out)
            except CheckError as exc:
                print(f"CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
                return False
            return True

        if args.trace:
            values = layer_metrics(tr, wl, untraced, traced, setup_counts)
            units = PER_LAYER
            tr.dump(os.path.join(
                outdir_root, f"trace-{args.workload}-seed{args.seed}.json"))
            correct = check()
            setups = [setup_s]
        else:
            correct = check()
            setups = [setup_s] + [setup_sample(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            rates = round_rates(tr, wl, marks + [None], times)
            values = {"setup_s": statistics.median(setups),
                      "wall_s": statistics.median(times),
                      "peak_rss_mb": peak_mb}
            units = END_TO_END
        attempted = wl.ops * len(times)
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "rounds": len(times),
            "round_s": times, "setup_samples_s": setups,
            "speed": REFERENCE_PASS_S / statistics.median(
                [e - s for s, e in clock.passes]),
            "peak_rss_mb": peak_mb,
            "attempted": attempted, "failed": failed,
        }
        if not args.trace:
            record["throughput"] = rates
        print("record " + json.dumps(record))
        for key, unit in units.items():
            print(f"{args.workload}: {key} = {values[key]:.6g} {unit}")
        for key, value in record.get("throughput", {}).items():
            print(f"{args.workload}: {key} = {value:.6g} {PER_LAYER[key]}")
        print(f"{args.workload}: attempted {attempted}, failed {failed}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}))
        return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines() or [""]
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(line)
        if res.returncode != 0:
            code = res.returncode
        try:
            results[name] = json.loads(lines[-1])
        except ValueError:
            code = code or 1
    print(json.dumps({
        "correct": bool(results) and all(r["correct"] for r in results.values())
        and len(results) == len(NAMES),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
