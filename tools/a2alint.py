#!/usr/bin/env python3
"""mca2a invariant linter: repo-specific concurrency/API rules that neither
the compiler nor clang-tidy can express.

Checkers (each can be run alone with --only):

  raw-tag       Library code must mint message tags through rt::tags::make()
                in a stream drawn from the communicator. Flags
                kInternalTagBase arithmetic outside runtime/tags.hpp and
                send/recv/isend/irecv calls whose tag argument is a bare
                integer literal — both are how silent tag collisions (and
                cross-matched messages) were introduced historically.
  msg-nosignal  Every socket write in src/net/ must go through ::send or
                ::sendmsg with MSG_NOSIGNAL in its flags: a dead peer has
                to surface as EPIPE -> conn_lost() -> runtime_error, not
                as a SIGPIPE that kills the rank process. ::write,
                ::writev and ::sendto on sockets are flagged
                unconditionally (the endpoint never needs them).
  env-knob      The process environment is read in exactly one place
                (src/runtime/env.cpp); every other getenv() call is
                flagged. Every `A2A_*` knob the code reads (a quoted
                "A2A_..." string literal) must be documented in the knob
                tables (README.md / docs/*.md), and every documented knob
                must still exist in code — the two drift silently
                otherwise.
  no-stdout     Library code (src/) must not write to stdout or pull in
                iostream: stdout belongs to the application (benches emit
                CSV/JSON there), and iostream adds static-init-order
                hazards to a library linked into rank processes.
                fprintf(stderr, ...) diagnostics and snprintf formatting
                are fine.

Usage:
    tools/a2alint.py [--root REPO] [--only CHECKER] [--self-test]

--self-test runs every checker against tools/lint_fixtures/ and verifies
that seeded violations are caught and clean fixtures pass; CI runs it
before trusting a clean tree. Stdlib only. Exit status: 0 clean, 1
findings (or self-test failure), 2 usage error.
"""

import argparse
import os
import re
import sys

# --- source model ------------------------------------------------------------


def strip_comments(text):
    """Remove // and /* */ comments, preserving string/char literals and
    line numbers (newlines inside block comments are kept)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                i += 2
                continue
            if c == '"':
                state = "dq"
            elif c == "'":
                state = "sq"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("dq", "sq"):
            if c == "\\":
                out.append(c)
                if nxt:
                    out.append(nxt)
                    i += 2
                    continue
            elif (state == "dq" and c == '"') or (state == "sq" and c == "'"):
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def call_args(text, open_paren):
    """Return (argument text, end index) of the call whose '(' is at
    open_paren, or (None, open_paren) when unbalanced."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1 : j], j
    return None, open_paren


def split_top_level(args):
    """Split an argument list on top-level commas."""
    parts, depth, cur = [], 0, []
    for c in args:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Finding:
    def __init__(self, checker, path, line, message):
        self.checker = checker
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.checker,
                                   self.message)


def cxx_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, names in os.walk(base):
            # The fixtures are deliberately broken; only --self-test reads
            # them (with a fixture case as the root).
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(names):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    yield os.path.join(dirpath, name)


def read(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


# --- checkers ----------------------------------------------------------------

INT_LITERAL_RE = re.compile(r"^(0[xX][0-9a-fA-F]+|\d+)[uUlL]*$")
# No leading :: — POSIX ::send/::recv take flags, not tags, and belong to
# the msg-nosignal checker.
SEND_CALL_RE = re.compile(r"(?<![\w:])(send|recv|isend|irecv)\s*\(")
TAG_ARITH_RE = re.compile(r"\bkInternalTagBase\s*[+|\-]")


def check_raw_tag(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if rel.endswith(os.path.join("runtime", "tags.hpp")):
            continue
        text = strip_comments(read(path))
        for m in TAG_ARITH_RE.finditer(text):
            findings.append(Finding(
                "raw-tag", rel, line_of(text, m.start()),
                "tag built from kInternalTagBase arithmetic; use "
                "rt::tags::make(<op offset>, tag_stream)"))
        for m in SEND_CALL_RE.finditer(text):
            args, _ = call_args(text, m.end() - 1)
            if args is None:
                continue
            parts = split_top_level(args)
            # Comm::send/recv/isend/irecv all take the tag last.
            if len(parts) >= 3 and INT_LITERAL_RE.match(parts[-1]):
                findings.append(Finding(
                    "raw-tag", rel, line_of(text, m.start()),
                    "%s() with literal tag %s; mint tags with "
                    "rt::tags::make() in a stream from "
                    "Comm::acquire_tag_stream()" % (m.group(1), parts[-1])))
    return findings


SOCKET_WRITE_RE = re.compile(r"::\s*(send|write|writev|sendto|sendmsg)\s*\(")


def check_msg_nosignal(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if not rel.startswith(os.path.join("src", "net") + os.sep):
            continue
        text = strip_comments(read(path))
        for m in SOCKET_WRITE_RE.finditer(text):
            fn = m.group(1)
            args, _ = call_args(text, m.end() - 1)
            line = line_of(text, m.start())
            if fn in ("send", "sendmsg"):
                # Both take the flags last; MSG_NOSIGNAL must be among them.
                parts = split_top_level(args) if args is not None else []
                if not parts or "MSG_NOSIGNAL" not in parts[-1]:
                    findings.append(Finding(
                        "msg-nosignal", rel, line,
                        "::%s() without MSG_NOSIGNAL: a dead peer raises "
                        "SIGPIPE and kills the rank process" % fn))
            else:
                findings.append(Finding(
                    "msg-nosignal", rel, line,
                    "::%s() on a net-backend fd: use ::send or ::sendmsg "
                    "with MSG_NOSIGNAL so peer death surfaces as EPIPE" % fn))
    return findings


GETENV_RE = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
KNOB_LITERAL_RE = re.compile(r'"(A2A_[A-Z0-9_]+)"')
KNOB_DOC_RE = re.compile(r"(?<![A-Z0-9_])(A2A_[A-Z0-9_]+)(\*?)")


def check_env_knob(root, files):
    findings = []
    used = {}  # knob -> first (rel, line)
    env_cpp = os.path.join("src", "runtime", "env.cpp")
    for path in files:
        rel = os.path.relpath(path, root)
        text = strip_comments(read(path))
        if rel != env_cpp:
            for m in GETENV_RE.finditer(text):
                findings.append(Finding(
                    "env-knob", rel, line_of(text, m.start()),
                    "direct getenv(): read knobs through the validated "
                    "rt::env helpers (runtime/env.hpp)"))
        for m in KNOB_LITERAL_RE.finditer(text):
            used.setdefault(m.group(1), (rel, line_of(text, m.start())))

    documented = set()
    doc_paths = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for name in sorted(os.listdir(docs_dir)):
            if name.endswith(".md"):
                doc_paths.append(os.path.join(docs_dir, name))
    for path in doc_paths:
        if os.path.isfile(path):
            for m in KNOB_DOC_RE.finditer(read(path)):
                # `A2A_NET_*`-style prefix mentions in prose are not knob
                # names; skip anything with a trailing underscore or glob.
                if m.group(2) or m.group(1).endswith("_"):
                    continue
                documented.add(m.group(1))

    for knob in sorted(used):
        if knob not in documented:
            rel, line = used[knob]
            findings.append(Finding(
                "env-knob", rel, line,
                "knob %s is read here but missing from the docs knob "
                "tables (README.md / docs/*.md)" % knob))
    for knob in sorted(documented - set(used)):
        # Wildcard-ish mentions (A2A_NET_ as a prefix in prose) never parse
        # as a full knob, so anything here is a real stale entry.
        findings.append(Finding(
            "env-knob", "docs", 0,
            "knob %s is documented but no code reads it (stale docs or "
            "renamed knob)" % knob))
    return findings


STDOUT_RES = [
    (re.compile(r"#\s*include\s*<iostream>"),
     "iostream in library code: use fprintf(stderr, ...) for diagnostics"),
    (re.compile(r"\bstd\s*::\s*(cout|clog)\b"),
     "std::%s writes to the application's stdout"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?printf\s*\("),
     "printf() writes to the application's stdout; format with snprintf "
     "or diagnose via fprintf(stderr, ...)"),
    (re.compile(r"(?<![\w:.])(?:std\s*::\s*)?puts\s*\("),
     "puts() writes to the application's stdout"),
    (re.compile(r"\bfprintf\s*\(\s*stdout\b"),
     "fprintf(stdout, ...) in library code"),
]


def check_no_stdout(root, files):
    findings = []
    for path in files:
        rel = os.path.relpath(path, root)
        if not rel.startswith("src" + os.sep):
            continue
        text = strip_comments(read(path))
        for regex, msg in STDOUT_RES:
            for m in regex.finditer(text):
                rendered = msg % m.group(1) if "%s" in msg else msg
                findings.append(Finding(
                    "no-stdout", rel, line_of(text, m.start()), rendered))
    return findings


CHECKERS = {
    "raw-tag": (check_raw_tag, ("src",)),
    "msg-nosignal": (check_msg_nosignal, ("src",)),
    "env-knob": (check_env_knob, ("src", "bench", "examples", "tools",
                                  "tests")),
    "no-stdout": (check_no_stdout, ("src",)),
}


def run_checkers(root, only=None):
    findings = []
    for name, (fn, subdirs) in sorted(CHECKERS.items()):
        if only and name != only:
            continue
        findings.extend(fn(root, list(cxx_files(root, subdirs))))
    return findings


# --- fixture self-test -------------------------------------------------------


def self_test(repo_root):
    """Run every checker against tools/lint_fixtures/<case>/ trees. Each
    case directory is a miniature repo; expect.txt lists one
    `checker relative/path` pair per expected finding (empty = must be
    clean)."""
    fixtures = os.path.join(repo_root, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print("a2alint self-test: missing %s" % fixtures, file=sys.stderr)
        return 1
    failures = 0
    for case in sorted(os.listdir(fixtures)):
        case_dir = os.path.join(fixtures, case)
        if not os.path.isdir(case_dir):
            continue
        expect_path = os.path.join(case_dir, "expect.txt")
        expected = set()
        if os.path.isfile(expect_path):
            for raw_line in read(expect_path).splitlines():
                stripped = raw_line.strip()
                if stripped and not stripped.startswith("#"):
                    checker, rel = stripped.split()
                    expected.add((checker, rel))
        got = set()
        for f in run_checkers(case_dir):
            got.add((f.checker, f.path.replace(os.sep, "/")))
        if got != expected:
            failures += 1
            print("self-test FAIL: %s" % case, file=sys.stderr)
            for miss in sorted(expected - got):
                print("  missed expected finding: %s %s" % miss,
                      file=sys.stderr)
            for extra in sorted(got - expected):
                print("  unexpected finding: %s %s" % extra, file=sys.stderr)
        else:
            print("self-test ok: %s (%d findings)" % (case, len(got)))
    return 1 if failures else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--only", choices=sorted(CHECKERS),
                    help="run a single checker")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checkers against tools/lint_fixtures/")
    opts = ap.parse_args(argv)
    root = opts.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if opts.self_test:
        return self_test(root)
    findings = run_checkers(root, opts.only)
    for f in findings:
        print(f)
    if findings:
        print("a2alint: %d finding(s)" % len(findings), file=sys.stderr)
        return 1
    print("a2alint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
