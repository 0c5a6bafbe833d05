#!/usr/bin/env python3
"""Self-tests of the gaudisim benchmark against its known failure modes.

Usage (from the repository root):

    python3 perfbench/selftest.py

Builds gaudibench like run.py does, then checks:
  1. the metric lists in BENCHMARK.json match gaudibench's (names and units);
  2. the same seed twice gives identical simulated metrics and digest, and a
     different seed changes the serving workloads' simulated metrics;
  3. no workload reports a simulated metric its inputs do not produce, and
     no simulated or end-to-end metric reads the same on every workload that
     reports it;
  4. each workload's peak_rss_mb in the three-workload mode (--workload all)
     is its own peak, as in a process of its own, not an earlier workload's;
  5. halving a workload's pass count roughly halves its raw host time, so the
     host metric measures the program and not the harness.
Exits 1 if any check fails.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build helper)

WORKLOADS = ["paper-repro", "serve-ladder", "cluster-longctx"]
SERVING_SIM = {"ttft_ms_p50", "ttft_ms_p99.lo", "ttft_ms_p99.mid", "ttft_ms_p99.hi",
               "ttft_ms_p99.over", "itl_ms_p50", "itl_ms_p99", "goodput_tok_s",
               "slo_attainment_pct", "max_rate_under_slo", "sim_ms"}
EXPECTED_SIM = {
    "paper-repro": {"sim_ms", "table2_err_pct", "fig_err_pct", "fig4_ms", "fig5_speedup",
                    "fig6_speedup", "fig7_glu_ms", "fig8_gpt2_ms", "fig9_bert_ms"},
    "serve-ladder": SERVING_SIM,
    "cluster-longctx": SERVING_SIM | {"availability_pct"},
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def gaudibench(binary, workload, seed, passes, trace=0):
    return subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--passes", str(passes),
         "--trace", str(trace), "--out-dir", os.path.dirname(binary)],
        capture_output=True, text=True, check=True,
        env={k: v for k, v in os.environ.items() if not k.startswith("GAUDI_")}).stdout


def bench(binary, workload, seed, passes, trace=0):
    lines = gaudibench(binary, workload, seed, passes, trace).splitlines()
    sim = {}
    for line in lines:
        if line.startswith("sim "):
            name, rest = line[4:].split(" = ")
            sim[name] = float(rest.split()[0])
    digest = next(line.split()[1] for line in lines if line.startswith("digest: "))
    total = next(float(line.split()[2]) for line in lines if line.startswith("host: total"))
    ref = next(float(line.split("reference loop ")[1].split()[0])
               for line in lines if line.startswith("host: pass"))
    return {"sim": sim, "digest": digest, "host_total_ms": total, "ref_ms": ref,
            "result": json.loads(lines[-1])}


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = run.build(build_dir)

    listed = json.loads(subprocess.run([binary, "--list-metrics"], capture_output=True,
                                       text=True, check=True).stdout)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [[m["name"], m["unit"]] for m in spec[key]]
        check(want == listed[key], f"BENCHMARK.json {key} matches gaudibench's list")

    runs = {w: bench(binary, w, 1, 2) for w in WORKLOADS}
    for w in WORKLOADS:
        r = runs[w]
        check(r["result"]["correct"] and r["result"]["failed"] == 0,
              f"{w}: every output check passes")
        again = bench(binary, w, 1, 2)
        check(again["sim"] == r["sim"] and again["digest"] == r["digest"],
              f"{w}: same seed twice gives identical simulated metrics and digest")
        check(set(r["sim"]) == EXPECTED_SIM[w],
              f"{w}: reports exactly the simulated metrics its inputs produce")
    for w in ("serve-ladder", "cluster-longctx"):
        other = bench(binary, w, 2, 2)
        moved = [k for k in ("ttft_ms_p99.mid", "goodput_tok_s", "sim_ms")
                 if other["sim"][k] != runs[w]["sim"][k]]
        check(other["digest"] != runs[w]["digest"] and len(moved) == 3,
              f"{w}: a different seed changes the serving metrics")

    shared = set(runs["serve-ladder"]["sim"]) & set(runs["cluster-longctx"]["sim"])
    same = [k for k in shared
            if runs["serve-ladder"]["sim"][k] == runs["cluster-longctx"]["sim"][k]]
    check(not same, f"no simulated metric reads the same on both serving workloads {same}")
    for name in runs["paper-repro"]["result"]["metrics"]:
        values = {runs[w]["result"]["metrics"][name]["value"] for w in WORKLOADS}
        check(len(values) > 1, f"end-to-end {name} differs between workloads")

    together = json.loads(gaudibench(binary, "all", 1, 2).splitlines()[-1])["metrics"]
    for w in WORKLOADS:
        alone = runs[w]["result"]["metrics"]["peak_rss_mb"]["value"]
        shared = together[f"{w}/peak_rss_mb"]["value"]
        # Later workloads run on a heap the earlier ones fragmented, which
        # added up to 9% on cluster-longctx; reporting the process-wide peak
        # instead added 13% there.
        check(abs(shared - alone) <= 0.1 * alone,
              f"{w}: peak_rss_mb with --workload all ({shared:.2f} MB) is its own "
              f"({alone:.2f} MB alone)")

    # Raw times of two processes differ by up to a fifth on a shared machine
    # from its speed alone; each total is taken in units of its own
    # process's median reference-loop time to cancel that.
    for w in WORKLOADS:
        full = bench(binary, w, 1, 6)
        half = bench(binary, w, 1, 3)
        ratio = (full["host_total_ms"] / full["ref_ms"]) / (half["host_total_ms"] / half["ref_ms"])
        check(1.5 <= ratio <= 2.6,
              f"{w}: 6 passes take {ratio:.2f}x the raw host time of 3 passes "
              f"(in reference-loop units)")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
