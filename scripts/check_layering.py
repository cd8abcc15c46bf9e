#!/usr/bin/env python3
"""Architecture lint: enforce the ROADMAP layer diagram at include level.

The protocol engine's correctness argument rests on a structural
invariant the compiler never checks: the engine (src/core/) is a
deterministic state machine — no I/O, no threads, no clocks, no
randomness — and dependencies point strictly down the layer diagram:

    application (tests, bench, examples)
        hosts        transport/udp_transport.*, core/sim_host.*,
                     core/event_log.h
        sim          sim/ (discrete-event framework; sim/time.h is
                     vocabulary usable by everyone)
        transport    transport/router.h, transport/fifo_channel.h
        engine       core/ (endpoint, ordering, wire, api,
                     state_transfer, ...), baselines/
        util         util/

This script parses every #include in src/ (plus a banned-symbol scan of
engine translation units) and fails, listing each violation, when an
edge points upward or an engine TU touches a nondeterminism header.
Fail-closed: an unclassifiable file or unresolvable project include is
an error, not a skip.

Run:  python3 scripts/check_layering.py [--root src]
Exit: 0 clean, 1 violations (printed one per line), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Layer model. Higher number = higher layer; an include may only point at
# the same or a lower layer. `sim/time.h` is deliberately layer 0
# vocabulary: it defines only integer Time/Duration aliases and
# constants (no simulator, no clock access), and every layer speaks in
# those units.
UTIL = 0
ENGINE = 1
TRANSPORT = 2
SIM = 3
HOSTS = 4

LAYER_NAMES = {
    UTIL: "util",
    ENGINE: "engine",
    TRANSPORT: "transport",
    SIM: "sim",
    HOSTS: "hosts",
}

# Explicit allowlist: files whose directory lies about their layer.
# Keep this list short and justified — an entry here is an architectural
# statement, not an escape hatch.
FILE_LAYER_OVERRIDES = {
    # sim_host is a *host* (it wires Simulator+Network+Router around the
    # engine); it lives in core/ for historical reasons.
    "core/sim_host.h": HOSTS,
    "core/sim_host.cpp": HOSTS,
    # EventLog is application-facing support beside the hosts: it
    # records what a host's event sink sees and takes a mutex (a
    # UdpNode sink runs on the loop thread), so it is not engine code.
    "core/event_log.h": HOSTS,
    # Pure vocabulary (integer microsecond aliases, no clock): usable
    # from any layer, including the engine.
    "sim/time.h": UTIL,
}

DIR_LAYERS = {
    "util": UTIL,
    "core": ENGINE,
    "baselines": ENGINE,
    "transport": TRANSPORT,
    "sim": SIM,
}

# transport/ splits: the Router/fifo_channel library is the transport
# layer, but udp_transport is a host (threads, sockets, a real clock).
for _f in ("transport/udp_transport.h", "transport/udp_transport.cpp"):
    FILE_LAYER_OVERRIDES[_f] = HOSTS

# System headers an engine file must never include directly: threads,
# time, randomness and raw console I/O belong to hosts. (Transport and
# sim may use <chrono>-free virtual time; they are covered by the layer
# rule, not this list.)
ENGINE_BANNED_HEADERS = {
    "thread",
    "mutex",
    "shared_mutex",
    "condition_variable",
    "future",
    "atomic",
    "stop_token",
    "semaphore",
    "latch",
    "barrier",
    "chrono",
    "ctime",
    "time.h",
    "random",
    "cstdlib",  # rand()/srand() live here; engine has no business with it
    "iostream",
    "fstream",
    "cstdio",
    "stdio.h",
}

# Banned call-ish tokens in engine TUs (matched on comment- and
# string-stripped source): raw clocks and randomness that could sneak in
# without a telltale include.
ENGINE_BANNED_TOKENS = [
    (re.compile(r"\bstd::chrono\b"), "std::chrono"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bstd::thread\b"), "std::thread"),
    (re.compile(r"\bstd::mutex\b"), "std::mutex"),
    (re.compile(r"\bstd::atomic\b"), "std::atomic"),
    (re.compile(r"\bthis_thread\b"), "std::this_thread"),
    (re.compile(r"(?<![\w:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w:])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bstd::cout\b|\bstd::cerr\b"), "std::cout/cerr"),
]

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^">]+)[">]')


def strip_comments(text: str, keep_strings: bool) -> str:
    """Remove // and /* */ comments; string/char literals are kept
    verbatim (for the include scan) or removed (for the banned-token
    scan) per keep_strings. Newlines are preserved so reported line
    numbers stay meaningful."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                break
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j + 1, n)
            if keep_strings:
                out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def classify(rel: str) -> int | None:
    """Layer of a src/-relative path, or None if unclassifiable."""
    if rel in FILE_LAYER_OVERRIDES:
        return FILE_LAYER_OVERRIDES[rel]
    top = rel.split("/", 1)[0]
    return DIR_LAYERS.get(top)


def lint(root: Path) -> list[str]:
    errors: list[str] = []
    files = sorted(
        p for p in root.rglob("*") if p.suffix in (".h", ".cpp", ".cc")
    )
    if not files:
        errors.append(f"{root}: no source files found (wrong --root?)")
        return errors

    known = {str(p.relative_to(root)) for p in files}

    for path in files:
        rel = str(path.relative_to(root))
        layer = classify(rel)
        if layer is None:
            errors.append(
                f"{rel}: unclassifiable file — add its directory to "
                "DIR_LAYERS or the file to FILE_LAYER_OVERRIDES in "
                "scripts/check_layering.py"
            )
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        # Include targets are string-ish, so the include scan keeps
        # literals; the token scan drops them (a banned name inside a
        # log message is not a violation).
        include_view = strip_comments(text, keep_strings=True)
        token_view = strip_comments(text, keep_strings=False)
        is_engine = layer == ENGINE

        for lineno, line in enumerate(include_view.splitlines(), 1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            kind, target = m.groups()
            if kind == "<":
                if is_engine and target in ENGINE_BANNED_HEADERS:
                    errors.append(
                        f"{rel}:{lineno}: engine file includes <{target}> "
                        "— the engine is a deterministic state machine; "
                        "hosts own threads, time, randomness and I/O"
                    )
                continue
            # Project include. All project includes are src/-relative.
            if target not in known:
                errors.append(
                    f"{rel}:{lineno}: unresolvable project include "
                    f'"{target}" (expected a src/-relative path)'
                )
                continue
            dep_layer = classify(target)
            if dep_layer is None:
                errors.append(
                    f"{rel}:{lineno}: include of unclassifiable "
                    f'"{target}"'
                )
                continue
            if dep_layer > layer:
                errors.append(
                    f"{rel}:{lineno}: {LAYER_NAMES[layer]} file includes "
                    f'"{target}" ({LAYER_NAMES[dep_layer]}) — '
                    "dependencies must point down the layer diagram"
                )

        if is_engine:
            for lineno, line in enumerate(token_view.splitlines(), 1):
                for pattern, label in ENGINE_BANNED_TOKENS:
                    if pattern.search(line):
                        errors.append(
                            f"{rel}:{lineno}: engine file uses {label} — "
                            "hosts own time/threads/randomness"
                        )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default="src",
        help="source root to lint (default: src, relative to the repo "
        "checkout this script lives in)",
    )
    args = parser.parse_args()

    root = Path(args.root)
    if not root.is_absolute() and not root.exists():
        # Allow running from anywhere in the repo.
        repo = Path(__file__).resolve().parent.parent
        root = repo / args.root
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2

    errors = lint(root)
    if errors:
        for e in errors:
            print(e)
        print(f"\ncheck_layering: {len(errors)} violation(s)")
        return 1
    print("check_layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
