#!/usr/bin/env python3
"""Keep locked read-modify-writes out of the per-job hot path.

The worker, the telemetry instruments and the probe publish counters
that each have exactly one writing thread; they update them with plain
relaxed stores (tq::single_writer_add in src/conc/cacheline.h), because
a locked RMW drains the store buffer and makes the writer wait for the
cross-core transfer of everything it stored before
(docs/cache_line_analysis.md). This check fails when `fetch_add`,
`fetch_sub`, `exchange` or `compare_exchange` appears in one of the
hot-path files below.

A genuine exception is allowed when it says why: the line with the RMW,
or the line directly above it, carries a `// multi-writer: <reason>` or
`// cold: <reason>` comment with a non-empty reason.

Exit status 0 when clean, 1 when a violation is found (each printed as
file:line), 2 when a listed file is missing.

Usage: tools/check_hot_rmw.py [ROOT]   (default: repo root = parent of
this script's directory)
"""

import os
import re
import sys

HOT_FILES = [
    "src/common/core_queue.h",
    "src/runtime/worker.cc",
    "src/telemetry/metrics.h",
    "src/telemetry/trace_ring.h",
    "src/probe/probe.cc",
]

RMW_RE = re.compile(r"\b(fetch_add|fetch_sub|exchange|compare_exchange\w*)\b")
ALLOW_RE = re.compile(r"//\s*(multi-writer|cold):\s*\S")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def strip_comments(text):
    """Blank out // and /* */ comments, keeping line breaks, so only
    code can match (docs may name the operations freely)."""
    return COMMENT_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                          text)


def violations(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    code = strip_comments(text).splitlines()
    found = []
    for i, line in enumerate(lines):
        match = RMW_RE.search(code[i])
        if match is None:
            continue
        above = lines[i - 1] if i > 0 else ""
        if ALLOW_RE.search(line) or ALLOW_RE.search(above):
            continue
        found.append((i + 1, match.group(1), line.strip()))
    return found


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    bad = 0
    for rel in HOT_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            print(f"{rel}: missing hot-path file", file=sys.stderr)
            return 2
        for line_no, op, text in violations(path):
            print(f"{rel}:{line_no}: locked RMW `{op}` on the hot path "
                  f"without a `// multi-writer:` or `// cold:` reason: "
                  f"{text}")
            bad += 1
    if bad:
        print(f"check_hot_rmw: {bad} violation(s); use "
              "tq::single_writer_add for single-writer counters",
              file=sys.stderr)
        return 1
    print(f"check_hot_rmw: {len(HOT_FILES)} hot-path files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
