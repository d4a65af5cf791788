#!/usr/bin/env python3
"""Golden check for one paper-reproduction program in bench/.

Runs the program with DPSYNC_FAST=1, reads the BENCH_<name>.json report
it writes, drops the two wall-clock fields (`wall_seconds` and
`queries[].mean_qet_measured`) and compares everything else exactly
against the committed golden. Doubles must match bit for bit: the
reports print 17 significant digits, which round-trip. A field the
golden lacks is a difference too, so a new report field is pinned as
soon as the golden is updated.

Each difference is printed as program, experiment, field path and
golden -> got. Exit 0 when the report matches, 1 otherwise.

    python3 tools/bench_golden.py build/bench/fig2_end_to_end \\
        bench/golden/fig2_end_to_end.json [--update]

`--update` rewrites the golden from this run instead of comparing. The
golden stores one experiment per line with sorted keys, so a deliberate
change to a paper number shows up as a reviewable diff. CTest registers
one such check per program (bench/CMakeLists.txt).
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile


def run_report(program):
    """Runs `program` in fast mode; returns its parsed JSON report."""
    name = os.path.basename(program)
    with tempfile.TemporaryDirectory() as out_dir:
        env = dict(os.environ, DPSYNC_FAST="1", DPSYNC_BENCH_JSON_DIR=out_dir)
        proc = subprocess.run([program], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name}: exited with status {proc.returncode}\n"
                     f"{proc.stderr}")
        with open(os.path.join(out_dir, f"BENCH_{name}.json"),
                  encoding="utf-8") as f:
            return json.load(f)


def strip_timing(report):
    for exp in report["experiments"]:
        exp.pop("wall_seconds", None)
        for query in exp.get("queries", []):
            query.pop("mean_qet_measured", None)
    return report


def header(report):
    return {k: v for k, v in report.items() if k != "experiments"}


def render(report):
    """The report's header fields, then one experiment per line."""
    lines = [json.dumps(e, sort_keys=True) for e in report["experiments"]]
    return (json.dumps(header(report), sort_keys=True)[:-1] +
            ', "experiments": [\n' + ",\n".join(lines) + "\n]}\n")


class Missing:
    def __repr__(self):
        return "<missing>"


MISSING = Missing()


def same(a, b):
    """Exact equality; floats by bit pattern, so 0.0 and -0.0 differ."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and a == b


def diff(golden, got, path=""):
    """Yields (field path, golden, got) for every leaf that differs."""
    if isinstance(golden, dict) and isinstance(got, dict):
        for key in sorted(set(golden) | set(got)):
            yield from diff(golden.get(key, MISSING), got.get(key, MISSING),
                            f"{path}.{key}" if path else key)
    elif isinstance(golden, list) and isinstance(got, list):
        if len(golden) != len(got):
            yield f"{path} length", len(golden), len(got)
        for i, (want, have) in enumerate(zip(golden, got)):
            yield from diff(want, have, f"{path}[{i}]")
    elif not same(golden, got):
        yield path, golden, got


def compare(name, golden, got):
    """Returns one printable line per difference."""
    want_exps = golden["experiments"]
    have_exps = got["experiments"]
    lines = [f"report: {path}: {a!r} -> {b!r}"
             for path, a, b in diff(header(golden), header(got))]
    if len(want_exps) != len(have_exps):
        lines.append(f"report: experiment count: {len(want_exps)} -> "
                     f"{len(have_exps)}")
    for i, (want, have) in enumerate(zip(want_exps, have_exps)):
        tags = "/".join(str(want[k]) for k in ("engine", "strategy")
                        if k in want)
        label = f"experiment {i}" + (f" ({tags})" if tags else "")
        lines += [f"{label}: {path}: {a!r} -> {b!r}"
                  for path, a, b in diff(want, have)]
    return [f"{name}: {line}" for line in lines]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("program", help="path to the bench binary")
    parser.add_argument("golden", help="path to the golden JSON")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden from this run")
    args = parser.parse_args()
    name = os.path.basename(args.program)

    got = strip_timing(run_report(args.program))
    if args.update:
        with open(args.golden, "w", encoding="utf-8") as f:
            f.write(render(got))
        print(f"{name}: wrote {args.golden} "
              f"({len(got['experiments'])} experiments)")
        return 0
    with open(args.golden, encoding="utf-8") as f:
        golden = json.load(f)
    problems = compare(name, golden, got)
    if problems:
        print(f"{name}: {len(problems)} field(s) differ from {args.golden} "
              f"(golden -> got):")
        for p in problems:
            print(f"  {p}")
        print("If the change is intended, rerun with --update and commit "
              "the new golden.")
        return 1
    print(f"{name}: OK ({len(got['experiments'])} experiments match "
          f"{args.golden})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
