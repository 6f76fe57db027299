#!/usr/bin/env python3
"""Build and drive the repo's benchmark (see README.md beside this file).

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload in one pinned process. The last line of standard output
      is the JSON object {correct, attempted, failed, metrics}: end-to-end
      metrics with --trace 0, per-layer metrics with --trace 1.
  python3 benchmark/run.py [--seed N] [--seconds S]
      Every workload, both passes; prints the full ledger and writes
      benchmark/out/report.json.
  python3 benchmark/run.py --selfcheck
      Runs the end-to-end pass twice in fresh processes and fails unless
      every metric agrees within its own bound and every exact value is
      identical; then one traced pass, whose digest and net-replay
      assertions must hold.
  python3 benchmark/run.py --update-expected
      Rewrites expected.json from a seed-1996 run of every workload.

--with-trace-off adds the second build (--no-default-features) to a
--trace 0 run and reports sim.metrics_overhead_frac from it; --trace 1,
the full ledger and --selfcheck always include it.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED_SEED = 1996
# Simulated ratios and counters: equal on every run of one commit and seed.
EXACT = ["norm_time_dir4tree2", "norm_time_adaptive", "check.explored", "check.states"]
# What a user sees beside the bounded metrics; the plain pass computes them
# too, BENCHMARK.json lists them per layer (README: end-to-end metrics).
ALSO_END_TO_END = [("explored_per_s", "1/s"), ("peak_rss_mb", "MB"),
                   ("norm_time_dir4tree2", "ratio"), ("norm_time_adaptive", "ratio")]


def die(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    env = os.environ.get("CARGO_TARGET_DIR")
    return Path(env).resolve() if env else BENCH / "target"


def build(trace_feature):
    """Build one of the two binaries; returns its path."""
    target = target_dir() if trace_feature else target_dir() / "trace-off"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml"), "--target-dir", str(target)]
    if not trace_feature:
        cmd.append("--no-default-features")
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    built = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        die("cargo build failed", 3)
    return target / "release" / "dirtree-benchmark"


def pin():
    """Pin this process, and so every child, to one CPU; returns it or None.

    Done after the builds so cargo keeps every core. Recording a trace
    through the rendezvous threads costs 3-4 us/op on one CPU and 14-37
    unpinned (see README), so an unpinned run is flagged in the output.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def run_child(binaries, feature, workload, seed, seconds, trace, plain_only=False):
    """Run one workload on the build with the `trace` feature on or off;
    returns (contract line, detail file contents)."""
    cmd = [str(binaries[feature]), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if plain_only:
        cmd += ["--plain-only", "1"]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        die(f"{workload}: benchmark process exited with {child.returncode}", 4)
    suffix = "" if feature else "-traceoff"
    detail = json.loads((OUT / f"result-{workload}-t{trace}{suffix}.json").read_text())
    return json.loads(lines[-1]), detail


def value(table, name):
    return table[name]["value"]


def run_workload(binaries, workload, seed, seconds, trace, with_trace_off):
    """One contract run: returns (contract result, detail).

    On a sim workload a traced run, or --with-trace-off, also runs the same
    plain pass on the build without the `trace` feature;
    sim.metrics_overhead_frac is host_s(on) / host_s(off) - 1.
    """
    result, detail = run_child(binaries, True, workload, seed, seconds, trace)
    if workload != "check_mix" and (trace or with_trace_off):
        off, off_detail = run_child(binaries, False, workload, seed, seconds, trace,
                                    plain_only=bool(trace))
        overhead = (value(detail["end_to_end"], "host_s")
                    / value(off_detail["end_to_end"], "host_s") - 1.0)
        if trace:
            for table in (result["metrics"], detail["per_layer"]):
                table["sim.metrics_overhead_frac"]["value"] = overhead
            result["attempted"] += off["attempted"]
            result["failed"] += off["failed"]
            result["correct"] = result["correct"] and off["correct"]
        else:
            # Beside, not inside, the contract line of an end-to-end run.
            print(f"sim.metrics_overhead_frac {overhead:.4f} frac")
    return result, detail


def provenance(cpu, seed, seconds):
    def tool(*cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    return {
        "nproc": os.cpu_count(),
        "rustc": tool("rustc", "-V"),
        "git_commit": tool("git", "rev-parse", "HEAD") or "not a git checkout",
        "pinned": cpu is not None,
        "pinned_cpu": cpu,
        "seed": seed,
        "seconds": seconds,
    }


def fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 1000:
        return f"{x:,.0f}"
    return f"{x:.4g}"


def print_table(title, names, columns):
    """names: [(name, unit)], columns: {workload: {name: {value}}}."""
    print(f"\n{title}")
    width = max(len(n) for n, _ in names)
    print(f"{'metric':<{width}}  {'unit':<10}" + "".join(f"{w:>17}" for w in columns))
    for name, unit in names:
        cells = "".join(f"{fmt(value(t, name)):>17}" for t in columns.values())
        print(f"{name:<{width}}  {unit:<10}{cells}")


def full_report(binaries, cpu, spec, seed, seconds):
    names = lambda key: [(m["name"], m["unit"]) for m in spec[key]]
    e2e, layers, rows, host = {}, {}, {}, {}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        print(f"== {w}: end-to-end pass", file=sys.stderr)
        r0, d0 = run_workload(binaries, w, seed, seconds, 0, False)
        print(f"== {w}: traced pass", file=sys.stderr)
        r1, d1 = run_workload(binaries, w, seed, seconds, 1, False)
        ok = ok and r0["correct"] and r1["correct"]
        e2e[w] = dict(d0["end_to_end"])
        e2e[w].update({name: d0["per_layer"][name] for name, _ in ALSO_END_TO_END})
        e2e[w]["failed_frac"] = {"value": r0["failed"] / r0["attempted"], "unit": "frac"}
        layers[w], rows[w], host[w] = d1["per_layer"], d0["configs"], d0["host"]
    print_table("End-to-end (pass without wrappers; host time unless named norm_time_*)",
                names("end_to_end") + ALSO_END_TO_END + [("failed_frac", "frac")], e2e)
    print_table("Per layer (traced pass, exact counters, outside estimates)",
                names("per_layer"), layers)
    for w, configs in rows.items():
        print(f"\n{w}: per config (median of {len(configs[0]['samples_s'])} repetitions)")
        for c in configs:
            print(f"  {c['label']:<28}{c['median_s']:>9.4f} s")
    prov = provenance(cpu, seed, seconds)
    prov["cpu_model"] = next(iter(host.values()))["cpu_model"]
    prov["samples"] = {w: {"repetitions": h["repetitions"],
                           "trace.clock_pair_ns": h["trace.clock_pair_ns"]}
                       for w, h in host.items()}
    print("\nHost and provenance\n" + json.dumps(prov, indent=2))
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(
        {"provenance": prov, "end_to_end": e2e, "per_layer": layers, "configs": rows},
        indent=2) + "\n")
    print(f"\nwrote {OUT / 'report.json'}; overall correct: {ok}")
    return ok


def selfcheck(binaries, spec, seed, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':<17}{'metric':<18}{'run A':>14}{'run B':>14}{'worse by':>10}{'bound':>7}")
    for w in (x["name"] for x in spec["workloads"]):
        (ra, da), (rb, db) = (run_workload(binaries, w, seed, seconds, 0, False) for _ in "AB")
        for name, bound in bounds.items():
            a, b = value(da["end_to_end"], name), value(db["end_to_end"], name)
            gap = abs(a - b) / min(a, b)
            good = gap <= bound
            ok = ok and good
            print(f"{w:<17}{name:<18}{fmt(a):>14}{fmt(b):>14}{gap:>10.4f}{bound:>7}"
                  + ("" if good else "  OUTSIDE BOUND"))
        for name in EXACT:
            a, b = value(da["per_layer"], name), value(db["per_layer"], name)
            good = a == b
            ok = ok and good
            print(f"{w:<17}{name:<18}{fmt(a):>14}{fmt(b):>14}{'exact':>10}"
                  + ("" if good else "  DIFFERS"))
        rss = [value(d["per_layer"], "peak_rss_mb") for d in (da, db)]
        print(f"{w:<17}{'peak_rss_mb':<18}{fmt(rss[0]):>14}{fmt(rss[1]):>14}"
              f"{abs(rss[0] - rss[1]) / min(rss):>10.4f}{'info':>7}")
        digests = [[c["digest"] for c in d["configs"]] for d in (da, db)]
        clean = ra["failed"] == rb["failed"] == 0 and digests[0] == digests[1]
        rt, _ = run_workload(binaries, w, seed, seconds, 1, False)
        print(f"{w:<17}failed_frac {ra['failed'] / ra['attempted']} / "
              f"{rb['failed'] / rb['attempted']}, digests "
              f"{'identical' if digests[0] == digests[1] else 'DIFFER'}; traced pass "
              f"(wrapper transparency, net replay): "
              f"{'ok' if rt['correct'] else 'FAILED'} ({rt['failed']}/{rt['attempted']} failed)")
        ok = ok and clean and rt["correct"]
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return ok


def update_expected(binaries, spec):
    expected = {}
    for w in (x["name"] for x in spec["workloads"]):
        # One repetition is enough: the digests are the point, not the times.
        _, detail = run_child(binaries, True, w, EXPECTED_SEED, 0.001, 0)
        expected[w] = {c["label"]: c["digest"] for c in detail["configs"]}
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {BENCH / 'expected.json'}; the next run rebuilds with it")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=EXPECTED_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--with-trace-off", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--update-expected", action="store_true")
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as e:
        die(f"cannot read BENCHMARK.json: {e}", 2)
    if not (ROOT / "crates").is_dir():
        die("crates/ not found: the benchmark builds the simulator from this checkout", 2)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    one = args.workload is not None
    if one and args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}", 2)

    need_off = not one or args.trace == 1 or args.with_trace_off
    binaries = {True: build(True)}
    if need_off and not args.update_expected:
        binaries[False] = build(False)
    cpu = pin()
    if cpu is None:
        print("run.py: WARNING: could not pin to one CPU; timings will be noisier",
              file=sys.stderr)

    if args.update_expected:
        update_expected(binaries, spec)
    elif args.selfcheck:
        sys.exit(0 if selfcheck(binaries, spec, args.seed, seconds) else 1)
    elif one:
        result, _ = run_workload(binaries, args.workload, args.seed, seconds,
                                 args.trace, args.with_trace_off)
        print(json.dumps(result))
    else:
        sys.exit(0 if full_report(binaries, cpu, spec, args.seed, seconds) else 1)


if __name__ == "__main__":
    main()
