#!/usr/bin/env python3
"""Repo-specific invariant linter for the sciduction tree.

Five invariants that neither the compiler nor clang-tidy can express,
checked over the working tree (no build needed). Run from anywhere:

    python3 tools/sciduction_lint.py

Invariants
----------
1. raw-lock-primitive: production code (src/**) takes locks only through
   the annotated sd:: wrappers in src/substrate/annotations.hpp — raw
   std::mutex / std::lock_guard / <mutex> includes and friends are
   forbidden outside that one file. A raw primitive carries no capability
   attributes, so anything it guards silently drops out of the Clang
   -Wthread-safety analysis (docs/STATIC_ANALYSIS.md).
2. raw-thread: production code spawns threads only through
   src/substrate/thread_pool.* — a bare std::thread elsewhere escapes the
   pool's lifecycle (drain ordering, sanitizer coverage, metrics).
3. throw-in-result-path: the solve path promises "errors are values":
   every failure surfaces as answer::error / solve_status, never as an
   exception crossing the boundary (engine run_and_complete serializes).
   `throw` in the result-path files needs a `lint: throw-ok(<why>)`
   marker on the same or preceding line, reserved for programming-error
   ctor validation and pre-serving setup.
4. header-registration: every public header in src/{substrate,service,
   obs,frontend} must be listed in docs/Doxyfile INPUT and matched by a
   tools/check_headers.sh glob, so new headers cannot dodge the doc
   gates by never being registered.
5. app-concurrency: the application loops and the layers they build on
   (src/{core,gametime,hybrid,invgen,ir,ogis}) run one loop each, on the
   calling thread: none may include substrate/thread_pool.hpp or name
   thread_pool or parallel_for/_map. Concurrency is chosen by a
   request's strategy inside the substrate (smt_engine, solve_cnf) and
   the daemon, so a second, parallel path beside a loop cannot creep back.

Exit status: 0 clean, 1 findings (printed as file:line: [rule] message),
2 usage/setup error.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# -- invariant 1: raw lock primitives ---------------------------------------

# The one file allowed to name the raw primitives: it wraps them.
LOCK_WHITELIST = {"src/substrate/annotations.hpp"}

RAW_LOCK_TYPES = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::lock_guard",
    "std::scoped_lock",
    "std::unique_lock",
    "std::shared_lock",
    "std::condition_variable",
    "std::condition_variable_any",
]
# Word-boundary on the right so std::mutex does not also fire inside a
# longer identifier; the list is ordered so longer names match first.
RAW_LOCK_RE = re.compile(
    "|".join(
        re.escape(t) + r"\b"
        for t in sorted(RAW_LOCK_TYPES, key=len, reverse=True)
    )
)
RAW_LOCK_INCLUDE_RE = re.compile(r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>')

# -- invariant 2: raw threads -----------------------------------------------

THREAD_WHITELIST = {
    "src/substrate/thread_pool.hpp",
    "src/substrate/thread_pool.cpp",
}
# std::thread the type, not the std::this_thread namespace and not
# std::thread::hardware_concurrency() (a static query, no thread spawned).
RAW_THREAD_RE = re.compile(r"std::thread\b(?!::)")

# -- invariant 3: throw in the solve_status result path ----------------------

RESULT_PATH_FILES = [
    "src/substrate/engine.cpp",
    "src/substrate/portfolio.cpp",
    "src/substrate/shard.cpp",
    "src/substrate/backend.cpp",
    "src/service/server.cpp",
]
THROW_RE = re.compile(r"\bthrow\b")
THROW_OK_RE = re.compile(r"lint:\s*throw-ok\(")

# -- invariant 4: header registration ---------------------------------------

PUBLIC_HEADER_DIRS = ["src/substrate", "src/service", "src/obs", "src/frontend"]


# -- invariant 5: application concurrency -----------------------------------

APP_DIRS = ["src/core", "src/gametime", "src/hybrid", "src/invgen", "src/ir", "src/ogis"]
APP_POOL_NAME_RE = re.compile(r"\b(thread_pool|parallel_(?:for|map))\b")
# Matched on the raw line: stripping blanks the quoted include path.
APP_POOL_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"substrate/thread_pool\.hpp"')


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Good enough for token-presence checks: no lexer, but handles // and
    /* */ nesting-free comments and simple escaped quotes, which is all
    this codebase uses.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            i = n if j < 0 else j  # keep the newline itself
        elif two == "/*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:end])
            i = end
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def source_files(*roots: str) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        base = REPO / root
        if base.is_dir():
            files.extend(p for ext in ("*.hpp", "*.cpp") for p in base.rglob(ext))
    return sorted(files)


def lint() -> list[str]:
    findings: list[str] = []

    def report(path: Path, line_no: int, rule: str, message: str) -> None:
        findings.append(f"{rel(path)}:{line_no}: [{rule}] {message}")

    # Invariants 1 + 2 over all production sources.
    for path in source_files("src"):
        relpath = rel(path)
        code = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line_no, line in enumerate(code.splitlines(), start=1):
            if relpath not in LOCK_WHITELIST:
                m = RAW_LOCK_RE.search(line)
                if m:
                    report(path, line_no, "raw-lock-primitive",
                           f"{m.group(0)} outside src/substrate/annotations.hpp; "
                           "use the annotated sd:: wrapper")
                m = RAW_LOCK_INCLUDE_RE.search(line)
                if m:
                    report(path, line_no, "raw-lock-primitive",
                           f"#include <{m.group(1)}> outside "
                           "src/substrate/annotations.hpp; include "
                           '"substrate/annotations.hpp" instead')
            if relpath not in THREAD_WHITELIST and RAW_THREAD_RE.search(line):
                report(path, line_no, "raw-thread",
                       "std::thread outside src/substrate/thread_pool.*; "
                       "schedule onto the pool")

    # Invariant 3: throw markers in the result-path files.
    for relpath in RESULT_PATH_FILES:
        path = REPO / relpath
        if not path.is_file():
            report(path, 1, "throw-in-result-path",
                   "result-path file listed in the linter no longer exists; "
                   "update RESULT_PATH_FILES")
            continue
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        code_lines = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for idx, code_line in enumerate(code_lines):
            if not THROW_RE.search(code_line):
                continue
            here = raw_lines[idx]
            above = raw_lines[idx - 1] if idx > 0 else ""
            if not (THROW_OK_RE.search(here) or THROW_OK_RE.search(above)):
                report(path, idx + 1, "throw-in-result-path",
                       "throw inside the solve_status boundary: return an "
                       "error-status result, or justify with "
                       "`// lint: throw-ok(<why>)` on this or the line above")

    # Invariant 5: no pool in the application loops.
    for path in source_files(*APP_DIRS):
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        code_lines = strip_comments_and_strings("\n".join(raw_lines)).splitlines()
        for idx, code_line in enumerate(code_lines):
            if APP_POOL_INCLUDE_RE.search(raw_lines[idx]):
                report(path, idx + 1, "app-concurrency",
                       "substrate/thread_pool.hpp included by an application "
                       "loop; pick concurrency with the request's strategy")
            m = APP_POOL_NAME_RE.search(code_line)
            if m:
                report(path, idx + 1, "app-concurrency",
                       f"{m.group(0)} in an application loop; pick concurrency "
                       "with the request's strategy")

    # Invariant 4: public headers registered with the doc gates.
    doxyfile = REPO / "docs/Doxyfile"
    check_headers = REPO / "tools/check_headers.sh"
    doxy_text = doxyfile.read_text(encoding="utf-8")
    doxy_headers = set(re.findall(r"(src/[A-Za-z0-9_/]+\.hpp)", doxy_text))
    # The default glob list out of check_headers.sh ("src/substrate/*.hpp
    # src/service/*.hpp ..."): expand each pattern against the tree.
    glob_patterns = re.findall(r"(src/[A-Za-z0-9_/]+/\*\.hpp)", check_headers.read_text(encoding="utf-8"))
    globbed: set[str] = set()
    for pattern in glob_patterns:
        globbed.update(rel(p) for p in REPO.glob(pattern))
    for dirname in PUBLIC_HEADER_DIRS:
        for path in sorted((REPO / dirname).glob("*.hpp")):
            relpath = rel(path)
            if relpath not in doxy_headers:
                report(path, 1, "header-registration",
                       f"public header missing from docs/Doxyfile INPUT")
            if relpath not in globbed:
                report(path, 1, "header-registration",
                       "public header not matched by any tools/check_headers.sh "
                       "glob")
    return findings


def main() -> int:
    findings = lint()
    for finding in findings:
        print(finding)
    if findings:
        print(f"sciduction_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("sciduction_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
