#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Builds through run.py, then checks that
  * every smoke run is correct (every answer oracle-checked, no failures);
  * two same-seed runs of each horizon workload give bit-identical
    deterministic metrics (paper metrics, core.syncs, oram.access_count,
    query.records_scanned, input digest);
  * a different seed changes the generated inputs;
  * the zero predictions hold in the traced run: dist.* is 0 outside
    dist_scan, oram.* is 0 outside oram_indexed, edb.view_hit_ratio is 0 on
    dist_scan and oram_indexed — and the positive controls are nonzero.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("owner_sync", "analyst_mix", "dist_scan", "oram_indexed")
HORIZON = ("owner_sync", "oram_indexed")
DIST_METRICS = ("dist.rpc_per_query", "dist.bytes_per_query",
                "dist.remote_partials", "dist.bytes_replicated",
                "dist.replica_lag_batches", "dist.failovers")
ORAM_METRICS = ("oram.paths", "oram.buckets", "oram.virtual_s",
                "oram.max_stash", "oram.access_count")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        sys.exit("selftest: no output from %s\n%s" % (" ".join(cmd), r.stderr))
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        if line.startswith("# deterministic "):
            digest = json.loads(line[len("# deterministic "):])
    return r.returncode, result, digest


def main():
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    traced = {}
    for w in WORKLOADS:
        code, result, digest = run(w, 1, 1)
        traced[w] = (result, digest)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              "%s: every answer matches the oracle" % w)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name in DIST_METRICS:
            if w != "dist_scan":
                check(metrics[name] == 0, "%s: %s is 0" % (w, name))
        for name in ORAM_METRICS:
            if w != "oram_indexed":
                check(metrics[name] == 0, "%s: %s is 0" % (w, name))
        if w in ("dist_scan", "oram_indexed"):
            check(metrics["edb.view_hit_ratio"] == 0,
                  "%s: edb.view_hit_ratio is 0" % w)
        if w == "dist_scan":
            check(metrics["dist.remote_partials"] > 0,
                  "dist_scan: dist.remote_partials is nonzero")
        if w == "oram_indexed":
            check(metrics["oram.paths"] > 0, "oram_indexed: oram.paths is nonzero")
        if w in ("owner_sync", "analyst_mix"):
            check(metrics["edb.view_hit_ratio"] > 0,
                  "%s: edb.view_hit_ratio is nonzero" % w)

    for w in HORIZON:
        code, result, digest = run(w, 1, 0)
        check(code == 0 and digest == traced[w][1],
              "%s: same-seed runs give identical deterministic metrics" % w)
    for w in WORKLOADS:
        _, _, digest = run(w, 2, 0)
        check(digest["input_digest"] != traced[w][1]["input_digest"],
              "%s: another seed changes the inputs" % w)

    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
