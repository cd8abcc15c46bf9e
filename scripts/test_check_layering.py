#!/usr/bin/env python3
"""Self-test for check_layering.py: the lint must fail on synthetic
violations (upward include, banned header/token in an engine TU,
unclassifiable file) and pass on both a clean fixture and the real
tree. Runs standalone (no pytest): python3 scripts/test_check_layering.py
Registered in ctest as layering_lint_selftest.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_layering  # noqa: E402

FAILURES = []


def expect(cond: bool, label: str) -> None:
    print(("PASS" if cond else "FAIL") + f": {label}")
    if not cond:
        FAILURES.append(label)


def run_fixture(files: dict[str, str]) -> list[str]:
    """Lint a synthetic src/ tree given {relpath: content}."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, content in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content)
        return check_layering.lint(root)


CLEAN = {
    "util/codec.h": "#pragma once\n#include <vector>\n",
    "core/engine.h": '#pragma once\n#include "util/codec.h"\n',
    "core/engine.cpp": '#include "core/engine.h"\n#include <map>\n',
    "transport/chan.h": '#pragma once\n#include "core/engine.h"\n',
    "transport/udp_transport.cpp": (
        '#include "transport/chan.h"\n#include <thread>\n'
    ),
}


def main() -> int:
    # 1. A clean synthetic tree lints clean.
    expect(run_fixture(CLEAN) == [], "clean fixture passes")

    # 2. Upward include: engine reaching into a host layer.
    bad = dict(CLEAN)
    bad["core/engine.cpp"] = '#include "transport/udp_transport.h"\n'
    bad["transport/udp_transport.h"] = "#pragma once\n"
    errs = run_fixture(bad)
    expect(
        any("dependencies must point down" in e for e in errs),
        "engine->host include rejected",
    )

    # 3. Banned header in an engine TU.
    bad = dict(CLEAN)
    bad["core/engine.cpp"] = '#include "core/engine.h"\n#include <chrono>\n'
    errs = run_fixture(bad)
    expect(
        any("<chrono>" in e for e in errs),
        "engine <chrono> include rejected",
    )

    # 4. Banned token (clock call), and comments don't false-positive.
    bad = dict(CLEAN)
    bad["core/engine.cpp"] = (
        '#include "core/engine.h"\n'
        "// time() in a comment is fine\n"
        "long f() { return time(nullptr); }\n"
    )
    errs = run_fixture(bad)
    expect(
        len(errs) == 1 and "time()" in errs[0] and ":3:" in errs[0],
        "engine time() call rejected (comment ignored)",
    )

    # 5. util including upward is rejected.
    bad = dict(CLEAN)
    bad["util/codec.h"] = '#pragma once\n#include "core/engine.h"\n'
    errs = run_fixture(bad)
    expect(
        any("util file includes" in e for e in errs),
        "util->core include rejected",
    )

    # 6. Unclassifiable file is an error, not a silent skip (fail-closed).
    bad = dict(CLEAN)
    bad["mystery/new_code.cpp"] = "int x;\n"
    errs = run_fixture(bad)
    expect(
        any("unclassifiable" in e for e in errs),
        "unclassifiable file rejected",
    )
    # ... including a reintroduced runtime/ tree (no layer rule maps it).
    bad = dict(CLEAN)
    bad["runtime/host.cpp"] = '#include "transport/chan.h"\n'
    errs = run_fixture(bad)
    expect(
        any("unclassifiable" in e and "runtime/host.cpp" in e for e in errs),
        "runtime/ file rejected as unclassifiable",
    )

    # 7. Unresolvable project include is an error (fail-closed).
    bad = dict(CLEAN)
    bad["core/engine.cpp"] = '#include "core/missing.h"\n'
    errs = run_fixture(bad)
    expect(
        any("unresolvable" in e for e in errs),
        "unresolvable include rejected",
    )

    # 8. core/event_log.h is a host file despite its directory: it may
    # take a mutex, and engine code may not include it.
    expect(
        check_layering.classify("core/event_log.h") == check_layering.HOSTS,
        "core/event_log.h classified as hosts",
    )
    ok = dict(CLEAN)
    ok["core/event_log.h"] = (
        '#pragma once\n#include "core/engine.h"\n#include <mutex>\n'
    )
    expect(run_fixture(ok) == [], "event_log.h may include <mutex>")
    bad = dict(ok)
    bad["core/engine.cpp"] = '#include "core/event_log.h"\n'
    errs = run_fixture(bad)
    expect(
        any("engine file includes" in e and "event_log.h" in e for e in errs),
        "engine->event_log.h include rejected",
    )

    # 9. The real tree is clean at head.
    real_src = Path(__file__).resolve().parent.parent / "src"
    expect(check_layering.lint(real_src) == [], "real src/ tree passes")

    if FAILURES:
        print(f"\n{len(FAILURES)} self-test failure(s)")
        return 1
    print("\nall layering self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
