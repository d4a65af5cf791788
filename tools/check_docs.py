#!/usr/bin/env python3
"""Markdown hygiene gate: validate intra-repo references in all *.md.

These references are checked in every tracked markdown file outside
build trees and third_party (rule 3 keeps the wire protocol's message
table honest):

1. **Markdown links** `[text](target)` whose target is not an absolute
   URL or a pure fragment: the target path (resolved relative to the
   containing file, `#fragment` stripped) must exist.
2. **Code-path references**: mentions of repo paths like
   `src/edb/snapshot.h`, `docs/CONCURRENCY.md`, `tools/bench_golden.py`,
   `tests/snapshot_test.cc`, `.github/workflows/ci.yml` — any token
   rooted at a known top-level code directory with a recognized
   extension, in prose, inline code or fenced blocks, must name an
   existing file. Fenced blocks count because the architecture diagrams
   (docs/ARCHITECTURE.md, docs/ORAM.md, docs/STORAGE.md) are fenced and
   name the source files of each layer.

3. **The message table**: the first table under `### Messages` in
   docs/DISTRIBUTED.md must list exactly the `MsgKind` enumerators of
   src/net/messages.h, so a message kind added or deleted without its
   doc row fails.

4. **Include examples**: an inline-code `#include "x/y.h"` outside
   fences must name a file under one of the two include roots, `src/`
   or `tests/`. (Fenced blocks may quote other projects' code.)

5. **Test-suite references**: a `build*/tests/<suite>` token, fenced or
   not, must name a suite listed in `DPSYNC_TEST_SUITES`
   (tests/CMakeLists.txt), so a deleted or renamed suite cannot linger
   in a run-it-like-this example.

6. **Bench-program references**: a `build*/bench/<program>` token,
   fenced or not, must name a program listed in `DPSYNC_BENCHES` (which
   includes `DPSYNC_PAPER_BENCHES`) or `DPSYNC_MICRO_BENCHES`
   (bench/CMakeLists.txt).

7. **Qualified C++ names**: a qualified name in inline code outside
   fences (`ns::Type::member`, e.g. `query::PlanSelect` or
   `ServerStats::view_hits`) must end in an identifier that appears,
   outside `//` comments, in the C++ under `src/`, `tests/`, `bench/`,
   `examples/` or `perfbench/src/`, so a deleted or renamed function,
   type or field cannot linger in prose. Only the last component is
   checked: the sources rarely spell out the full qualification.

The repo-root change logs (`CHANGE_LOGS` below) record past or planned
changes: a file, suite or program they name may since have been
deleted, and that mention stays accurate. They are checked for links
(rule 1) only; every other markdown file gets every rule.

Exit 0 when clean; exit 1 listing every broken reference. CI runs this
in the `docs` job so documentation cannot rot silently; run it locally
after moving or renaming files:

    python3 tools/check_docs.py [--root <repo>] [-v]
"""
import argparse
import os
import re
import sys

# Directories whose *.md participate in the check (recursively), plus
# the repo root itself (non-recursive).
DOC_DIRS = ["docs", "tools", "bench", "examples", "src", "tests",
            ".github", ".claude"]
SKIP_DIR_NAMES = {"third_party", "node_modules", ".git"}
SKIP_DIR_PREFIXES = ("build",)  # build/, build-asan/, build-tsan/, ...

# A code-path reference: rooted at a known top-level dir, ending in a
# recognized source/doc extension.
PATH_ROOTS = r"(?:src|docs|tests|bench|tools|examples|cmake|third_party|\.github)"
PATH_EXTS = r"(?:h|cc|cpp|py|md|json|ya?ml|cmake|txt|seg)"
CODE_PATH_RE = re.compile(
    r"(?<![\w/.-])(" + PATH_ROOTS + r"/[\w./-]*\.(?:" + PATH_EXTS + r"))\b")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")

INLINE_CODE_RE = re.compile(r"`([^`]+)`")
INCLUDE_RE = re.compile(r'#include\s+"([\w./-]+)"')
INCLUDE_ROOTS = ["src", "tests"]
SUITE_REF_RE = re.compile(r"\bbuild[\w.-]*/tests/(\w+)")
SUITES_CMAKE = os.path.join("tests", "CMakeLists.txt")
SUITES_RE = re.compile(r"set\(DPSYNC_TEST_SUITES\b(.*?)\)", re.S)
BENCH_REF_RE = re.compile(r"\bbuild[\w.-]*/bench/(\w+)")
BENCHES_CMAKE = os.path.join("bench", "CMakeLists.txt")
BENCHES_RE = re.compile(r"set\(DPSYNC_\w*BENCHES\b(.*?)\)", re.S)
QUALIFIED_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+)")
CPP_DIRS = ["src", "tests", "bench", "examples", "perfbench/src"]
CPP_EXTS = (".h", ".cc", ".cpp")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
LINE_COMMENT_RE = re.compile(r"//.*")
# Logs of past or planned changes: links only (see the docstring).
CHANGE_LOGS = {"CHANGES.md", "ISSUE.md"}

MESSAGES_DOC = os.path.join("docs", "DISTRIBUTED.md")
MESSAGES_HEADER = os.path.join("src", "net", "messages.h")
MSG_KIND_ENUM_RE = re.compile(r"enum class MsgKind\b[^{]*\{(.*?)\};", re.S)


def md_files(root):
    files = []

    def want_dir(name):
        return name not in SKIP_DIR_NAMES and not name.startswith(
            SKIP_DIR_PREFIXES)

    for entry in sorted(os.listdir(root)):
        full = os.path.join(root, entry)
        if os.path.isfile(full) and entry.endswith(".md"):
            files.append(full)
        elif os.path.isdir(full) and want_dir(entry) and entry in DOC_DIRS:
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames[:] = sorted(d for d in dirnames if want_dir(d))
                for f in sorted(filenames):
                    if f.endswith(".md"):
                        files.append(os.path.join(dirpath, f))
    return files


def strip_fenced_blocks(lines):
    """Yields (lineno, line) for lines outside ``` fences."""
    in_fence = False
    for i, line in enumerate(lines, start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield i, line


def test_suites(root):
    """The suite names registered in tests/CMakeLists.txt."""
    with open(os.path.join(root, SUITES_CMAKE), encoding="utf-8") as f:
        m = SUITES_RE.search(f.read())
    return set(m.group(1).split()) if m else set()


def bench_programs(root):
    """The programs bench/CMakeLists.txt builds (any DPSYNC_*BENCHES)."""
    with open(os.path.join(root, BENCHES_CMAKE), encoding="utf-8") as f:
        bodies = BENCHES_RE.findall(f.read())
    return {w for body in bodies for w in body.split()
            if not w.startswith("$")}


def cpp_identifiers(root):
    """Every identifier the C++ sources use outside `//` comments."""
    ids = set()
    for d in CPP_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, d)):
            for f in filenames:
                if not f.endswith(CPP_EXTS):
                    continue
                with open(os.path.join(dirpath, f), encoding="utf-8") as src:
                    for line in src:
                        ids.update(IDENTIFIER_RE.findall(
                            LINE_COMMENT_RE.sub("", line)))
    return ids


def check_file(path, root, suites, benches, identifiers, verbose):
    errors = []
    checked = 0
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    here = os.path.dirname(path)
    rel = os.path.relpath(path, root)
    links_only = rel in CHANGE_LOGS

    # Rules 2, 5 and 6 also read fenced blocks; the change logs skip them.
    for lineno, line in enumerate([] if links_only else lines, start=1):
        for m in CODE_PATH_RE.finditer(line):
            ref = m.group(1)
            checked += 1
            if not os.path.exists(os.path.join(root, ref)):
                errors.append(f"{rel}:{lineno}: dangling code path ({ref})")
        for m in SUITE_REF_RE.finditer(line):
            checked += 1
            if m.group(1) not in suites:
                errors.append(f"{rel}:{lineno}: unknown test suite "
                              f"({m.group(0)}; not in DPSYNC_TEST_SUITES)")
        for m in BENCH_REF_RE.finditer(line):
            checked += 1
            if m.group(1) not in benches:
                errors.append(f"{rel}:{lineno}: unknown bench program "
                              f"({m.group(0)}; not in {BENCHES_CMAKE})")

    for lineno, line in strip_fenced_blocks(lines):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            if target.startswith("#"):  # same-file fragment
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            checked += 1
            resolved = (os.path.join(root, file_part.lstrip("/"))
                        if target.startswith("/")
                        else os.path.join(here, file_part))
            if not os.path.exists(resolved):
                errors.append(f"{rel}:{lineno}: broken link ({target})")
        if links_only:
            continue
        for span in INLINE_CODE_RE.findall(line):
            for m in INCLUDE_RE.finditer(span):
                checked += 1
                if not any(os.path.isfile(os.path.join(root, r, m.group(1)))
                           for r in INCLUDE_ROOTS):
                    errors.append(f"{rel}:{lineno}: include of a file under "
                                  f"neither src/ nor tests/ "
                                  f"({m.group(1)})")
            for m in QUALIFIED_RE.finditer(span):
                checked += 1
                if m.group(1).split("::")[-1].lstrip("~") not in identifiers:
                    errors.append(f"{rel}:{lineno}: qualified name whose "
                                  f"last identifier the C++ sources never "
                                  f"use ({m.group(1)})")
    if verbose:
        print(f"  {rel}: {checked} references")
    return errors


def doc_message_kinds(root):
    """The first-column kinds of the first table under `### Messages`."""
    with open(os.path.join(root, MESSAGES_DOC), encoding="utf-8") as f:
        lines = f.readlines()
    kinds = []
    in_section = in_table = False
    for _, line in strip_fenced_blocks(lines):
        if line.startswith("#"):
            if in_table:
                break
            in_section = line.strip() == "### Messages"
            continue
        if not in_section:
            continue
        if line.startswith("|"):
            in_table = True
            m = re.match(r"^\|\s*`(k\w+)`\s*\|", line)
            if m:
                kinds.append(m.group(1))
        elif in_table:
            break
    return kinds


def check_message_table(root):
    """Errors when the doc's message table and MsgKind disagree."""
    with open(os.path.join(root, MESSAGES_HEADER), encoding="utf-8") as f:
        m = MSG_KIND_ENUM_RE.search(f.read())
    if not m:
        return [f"{MESSAGES_HEADER}: enum class MsgKind not found"]
    body = re.sub(r"//[^\n]*", "", m.group(1))
    code = re.findall(r"\b(k\w+)\s*=", body)
    doc = doc_message_kinds(root)
    errors = []
    for kind in sorted(set(code) - set(doc)):
        errors.append(f"{MESSAGES_DOC}: message table lacks {kind} "
                      f"(a MsgKind in {MESSAGES_HEADER})")
    for kind in sorted(set(doc) - set(code)):
        errors.append(f"{MESSAGES_DOC}: message table lists {kind}, "
                      f"which is not a MsgKind in {MESSAGES_HEADER}")
    for kind in sorted({k for k in doc if doc.count(k) > 1}):
        errors.append(f"{MESSAGES_DOC}: message table lists {kind} twice")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's parent)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list per-file reference counts")
    args = parser.parse_args()
    root = os.path.abspath(args.root or
                           os.path.join(os.path.dirname(__file__), os.pardir))

    files = md_files(root)
    if not files:
        print(f"check_docs: no markdown files under {root}", file=sys.stderr)
        return 1
    suites = test_suites(root)
    benches = bench_programs(root)
    identifiers = cpp_identifiers(root)
    all_errors = []
    for path in files:
        all_errors.extend(check_file(path, root, suites, benches,
                                     identifiers, args.verbose))
    all_errors.extend(check_message_table(root))
    if all_errors:
        print(f"check_docs: {len(all_errors)} problem(s) in "
              f"{len(files)} markdown files:")
        for e in all_errors:
            print(f"  {e}")
        return 1
    print(f"check_docs: OK ({len(files)} markdown files, all intra-repo "
          f"links, code paths, include examples, suite and bench "
          f"references and qualified C++ names resolve, message table "
          f"matches MsgKind)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
