#!/usr/bin/env python3
"""Reachability check: no src/ function may be linked by tests alone.

    python3 tools/reachability.py [--root <repo>] [--build-dir <dir>]
                                  [--skip-build]

Builds every target of the repository, and perfbench from
perfbench/CMakeLists.txt, in build directories of its own, at
`-O0 -fno-inline -ffunction-sections` and linked with `-Wl,--gc-sections`,
so an executable keeps exactly the functions something in it references.
Then it compares, with `nm`:

  * the `dpsync::` functions the src/ libraries define (the
    libdpsync_*.a archives under the build tree's src/);
  * the functions linked into the test binaries (tests/);
  * the functions linked into the production binaries: the examples,
    the bench programs and perfbench.

A function is its qualified name, without parameters or template
arguments: every overload and every instantiation of a template counts
as one function, reached when any of them is linked. A library function
linked into some test binary and into no production binary is reached
by tests alone. Each one must be named in the allowlist
(tools/reachability_allowlist.txt), which gives it one reason; see that
file for the format. The script prints every such function, grouped by
reason, and exits 1 when one is not on the list or when a list entry
matches none of them (the function went, or production now reaches it),
so the list shrinks with the code. Functions linked into no binary at
all are printed too, without failing the check.

The micro benches (DPSYNC_MICRO_BENCHES in bench/CMakeLists.txt) are
production binaries that CMake builds only where Google Benchmark is
installed. Without them the verdict would depend on the machine, so the
script exits 2, naming the package, when any of them was not built.

`--root` points at another checkout: its sources are built and checked
against this repository's allowlist. `--skip-build` reuses the build
directories of an earlier run.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "reachability_allowlist.txt")
REASONS = ("seam", "recovery", "reference", "undecided")

COMPILE_FLAGS = "-O0 -fno-inline -ffunction-sections"
LINK_FLAGS = "-Wl,--gc-sections"
# Mangled names of functions declared in namespace dpsync (members,
# cv- and ref-qualified members included). Local entities such as
# lambdas (_ZZ...) follow their enclosing function and are left out.
DPSYNC_FUNCTION = re.compile(r"^_ZN[KVRO]*6dpsync")


def fail(message):
    print("reachability: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, **kwargs):
    code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          **kwargs).returncode
    if code != 0:
        fail("command failed (%d): %s" % (code, " ".join(cmd)))


def build(source, out):
    """Configures and builds every target with the flags above alone: a
    build type of its own adds no optimization flags after them."""
    run(["cmake", "-S", source, "-B", out,
         "-DCMAKE_BUILD_TYPE=Reachability",
         "-DCMAKE_CXX_FLAGS=" + COMPILE_FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS])
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 2)])


def nm_functions(path):
    """Mangled names of the dpsync:: functions `path` defines."""
    r = subprocess.run(["nm", "--defined-only", path], capture_output=True,
                       text=True)
    if r.returncode != 0:
        fail("nm failed on %s: %s" % (path, r.stderr.strip()))
    names = set()
    for line in r.stdout.splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[-2] not in ("T", "t", "W"):
            continue
        if DPSYNC_FUNCTION.match(parts[-1]):
            names.add(parts[-1])
    return names


def demangle(names):
    names = sorted(names)
    r = subprocess.run(["c++filt"], input="\n".join(names), capture_output=True,
                       text=True)
    if r.returncode != 0:
        fail("c++filt failed: " + r.stderr.strip())
    return dict(zip(names, r.stdout.splitlines()))


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def executables(directory):
    """ELF executables under `directory`, CMake's scratch trees excluded."""
    found = []
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            if is_elf_executable(path):
                found.append(path)
    return sorted(found)


def micro_benches(root):
    """The program names bench/CMakeLists.txt lists in
    DPSYNC_MICRO_BENCHES."""
    path = os.path.join(root, "bench", "CMakeLists.txt")
    with open(path) as f:
        m = re.search(r"set\(DPSYNC_MICRO_BENCHES([^)]*)\)", f.read())
    if m is None or not m.group(1).split():
        fail("no DPSYNC_MICRO_BENCHES list in " + path)
    return m.group(1).split()


def archives(directory):
    found = []
    for dirpath, _, filenames in os.walk(directory):
        found += [os.path.join(dirpath, n) for n in filenames
                  if n.startswith("libdpsync_") and n.endswith(".a")]
    return sorted(found)


ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
OPERATOR_CHARS = "<>=!+-*/%^&|~[],"


def function_name(demangled):
    """The function a demangled signature declares: its qualified name
    from the first top-level `dpsync::` (a function template's return
    type comes first) up to the parameter list, with template arguments
    and ABI tags dropped."""
    s = ABI_TAG.sub("", demangled)
    start = 0
    depth = 0
    for i, c in enumerate(s):
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0 and s.startswith("dpsync::", i) and \
                (i == 0 or s[i - 1] == " "):
            start = i
            break
    out = []
    depth = 0
    i = start
    while i < len(s):
        if s.startswith("(anonymous namespace)", i):
            if depth == 0:
                out.append("(anonymous namespace)")
            i += len("(anonymous namespace)")
            continue
        if depth == 0 and s.startswith("operator", i):
            j = i + len("operator")
            if s.startswith("()", j):
                j += 2
            else:
                while j < len(s) and s[j] in OPERATOR_CHARS:
                    j += 1
            out.append(s[i:j])
            i = j
            continue
        if depth == 0 and s[i] == "{":
            # A lambda's or other unnamed entity's name, kept whole.
            j = s.index("}", i) + 1
            out.append(s[i:j])
            i = j
            continue
        c = s[i]
        if c in "<(":
            if c == "(" and depth == 0:
                break
            depth += 1
        elif c in ">)":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out).strip()


def matches(entry, name):
    """An entry names a function or a scope (every function inside it)."""
    return name == entry or name.startswith(entry + "::")


def read_allowlist(path):
    entries = []
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            reason, _, name = line.partition(" ")
            if reason not in REASONS or not name.strip():
                fail("%s:%d: expected '<%s> <qualified name>'" %
                     (path, number, "|".join(REASONS)))
            entries.append((reason, name.strip(), number))
    return entries


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=DEFAULT_ROOT)
    p.add_argument("--build-dir", default=None,
                   help="default: <root>/build-reachability")
    p.add_argument("--skip-build", action="store_true")
    args = p.parse_args()

    root = os.path.abspath(args.root)
    out = os.path.abspath(args.build_dir or
                          os.path.join(root, "build-reachability"))
    repo_build = os.path.join(out, "repo")
    perfbench_build = os.path.join(out, "perfbench")
    if not args.skip_build:
        build(root, repo_build)
        build(os.path.join(root, "perfbench"), perfbench_build)

    missing = [name for name in micro_benches(root)
               if not is_elf_executable(os.path.join(repo_build, "bench",
                                                     name))]
    if missing:
        fail("the micro benches were not built (%s): install Google "
             "Benchmark (find_package(benchmark), e.g. libbenchmark-dev) "
             "so the production binaries are the same on every machine" %
             ", ".join(missing))

    library = set()
    for archive in archives(os.path.join(repo_build, "src")):
        library |= nm_functions(archive)
    if not library:
        fail("no libdpsync_*.a archives under " + repo_build)
    tests, production = set(), set()
    binaries = {"tests": 0, "production": 0}
    for path in executables(repo_build):
        part = os.path.relpath(path, repo_build).split(os.sep)[0]
        if part == "tests":
            tests |= nm_functions(path)
            binaries["tests"] += 1
        elif part in ("examples", "bench"):
            production |= nm_functions(path)
            binaries["production"] += 1
    perfbench = os.path.join(perfbench_build, "perfbench")
    if not is_elf_executable(perfbench):
        fail("perfbench was not built at " + perfbench)
    production |= nm_functions(perfbench)
    binaries["production"] += 1

    # Each linked symbol marks its function reached.
    names = {m: function_name(d) for m, d in
             demangle(library | tests | production).items()}
    library = {names[m] for m in library}
    tests = {names[m] for m in tests}
    production = {names[m] for m in production}
    test_only = sorted((library & tests) - production)
    unlinked = sorted(library - tests - production)

    entries = read_allowlist(ALLOWLIST)
    reason_of = {}
    used = set()
    for name in test_only:
        for reason, entry, number in entries:
            if matches(entry, name):
                reason_of[name] = reason
                used.add(number)
                break

    print("%d dpsync:: functions in the src/ libraries: %d linked into "
          "production binaries (%d), %d into test binaries (%d) alone, "
          "%d into none" % (len(library), len(library & production),
                            binaries["production"], len(test_only),
                            binaries["tests"], len(unlinked)))
    for reason in REASONS:
        listed = [n for n in test_only if reason_of.get(n) == reason]
        print("\n%s (%d):" % (reason, len(listed)))
        for name in listed:
            print("  " + name)
    if unlinked:
        print("\nlinked into no binary (%d):" % len(unlinked))
        for name in unlinked:
            print("  " + name)
    unlisted = [n for n in test_only if n not in reason_of]
    stale = [(entry, number) for _, entry, number in entries
             if number not in used]
    if unlisted:
        print("\nNOT ON THE ALLOWLIST (%d): give each a production caller, "
              "an allowlist reason, or delete it" % len(unlisted))
        for name in unlisted:
            print("  " + name)
    if stale:
        print("\nSTALE ALLOWLIST ENTRIES (%d): they match no test-only "
              "function; remove them" % len(stale))
        for entry, number in stale:
            print("  %s:%d: %s" % (os.path.basename(ALLOWLIST), number,
                                   entry))
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
