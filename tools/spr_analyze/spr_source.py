#!/usr/bin/env python3
"""spr_source: the source-handling layer under spr_analyze.

Every rule reads the C++ tree through this module:

  * strip_comments_and_strings — per-line source with comments and
    string/char literals blanked, line structure intact (or with only the
    comments blanked, for the one rule that matches inside strings).
  * PragmaSet / parse_pragmas — `spr-analyze: allow(rule) reason` line
    pragmas and `spr-analyze-file: allow(rule) reason` file pragmas (first
    10 lines), with malformed/unjustified pragmas surfaced as findings.
  * Finding — one (path, line, rule, message) record.
  * collect_files / relpath — deterministic tree walking.
"""

from __future__ import annotations

import os
import re

# The one pragma tag: `spr-analyze: allow(...)` and `spr-analyze-file: ...`.
PRAGMA_TAG = "spr-analyze"

# Extensions the tree walk picks up. Fixtures use `.cxx`/`.hxx`, so a walk
# over tools/ skips them.
SOURCE_EXTS = (".h", ".cpp", ".cc", ".hpp")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str,
                               keep_strings: bool = False) -> list[str]:
    """Per-line source with comments and string/char literals blanked.

    Keeps line structure (and therefore line numbers) intact.  Raw strings
    are handled with their full delimiter; escapes inside ordinary literals
    are honored.  Blanked spans become spaces so column-sensitive regexes
    keep working.  With `keep_strings`, literals keep their text and only
    comments are blanked.
    """
    def blank(span: str) -> str:
        if keep_strings:
            return span
        return "".join("\n" if ch == "\n" else " " for ch in span)

    i = 0
    n = len(text)
    buf = []
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                buf.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                buf.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
                if m:
                    raw_terminator = ")" + m.group(1) + '"'
                    state = "raw"
                    buf.append(blank(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                buf.append(blank(c))
                i += 1
                continue
            if c == "'":
                state = "char"
                buf.append(blank(c))
                i += 1
                continue
            buf.append(c)
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                state = "code"
                buf.append("\n")
            else:
                buf.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                buf.append("  ")
                i += 2
            else:
                buf.append("\n" if c == "\n" else " ")
                i += 1
            continue
        if state == "raw":
            if text.startswith(raw_terminator, i):
                buf.append(blank(raw_terminator))
                i += len(raw_terminator)
                state = "code"
            else:
                buf.append(blank(c))
                i += 1
            continue
        # string / char
        if c == "\\":
            buf.append(blank(text[i:i + 2]))
            i += 2
            continue
        if (state == "string" and c == '"') or (state == "char" and c == "'"):
            state = "code"
            buf.append(blank(c))
            i += 1
            continue
        buf.append(blank(c))
        i += 1
    return "".join(buf).split("\n")


class PragmaSet:
    """Per-file allow pragmas: line-scoped and file-wide rule sets."""

    def __init__(self, line_allow: dict[int, set[str]], file_allow: set[str]):
        self.line_allow = line_allow
        self.file_allow = file_allow

    def allows(self, line: int, rule: str) -> bool:
        return rule in self.file_allow or rule in self.line_allow.get(
            line, set()
        )


def parse_pragmas(raw_lines: list[str], findings: list[Finding], path: str,
                  rules: dict[str, str]) -> PragmaSet:
    """Parses `spr-analyze: allow(...)` / `spr-analyze-file: allow(...)`
    pragmas.

    Malformed pragmas (unknown rule, missing reason, file pragma past line
    10, unparseable tag mention) are appended to `findings` under the
    `pragma` rule.
    """
    line_re = re.compile(
        rf"{re.escape(PRAGMA_TAG)}:\s*allow\(([a-z\-,\s]+)\)\s*(.*)")
    file_re = re.compile(
        rf"{re.escape(PRAGMA_TAG)}-file:\s*allow\(([a-z\-,\s]+)\)\s*(.*)")
    line_allow: dict[int, set[str]] = {}
    file_allow: set[str] = set()
    for idx, line in enumerate(raw_lines, start=1):
        if PRAGMA_TAG not in line:
            continue
        m = file_re.search(line)
        if m:
            wanted = {r.strip() for r in m.group(1).split(",") if r.strip()}
            bad = wanted - set(rules)
            if bad:
                findings.append(
                    Finding(path, idx, "pragma",
                            f"unknown rule(s) {sorted(bad)}")
                )
            if not m.group(2).strip():
                findings.append(
                    Finding(path, idx, "pragma",
                            "file pragma without a reason")
                )
            if idx > 10:
                findings.append(
                    Finding(
                        path,
                        idx,
                        "pragma",
                        "file pragma must sit in the first 10 lines",
                    )
                )
            file_allow |= wanted & set(rules)
            continue
        m = line_re.search(line)
        if m:
            wanted = {r.strip() for r in m.group(1).split(",") if r.strip()}
            bad = wanted - set(rules)
            if bad:
                findings.append(
                    Finding(path, idx, "pragma",
                            f"unknown rule(s) {sorted(bad)}")
                )
            if not m.group(2).strip():
                findings.append(
                    Finding(path, idx, "pragma", "pragma without a reason")
                )
            line_allow.setdefault(idx, set()).update(wanted & set(rules))
            continue
        findings.append(
            Finding(path, idx, "pragma", f"unparseable {PRAGMA_TAG} pragma")
        )
    return PragmaSet(line_allow, file_allow)


def bind_comment_pragmas(
    pragmas: PragmaSet, stripped_lines: list[str]
) -> None:
    """A pragma on a comment-only line covers the next line holding code,
    so long statements can carry their justification above them."""
    for idx in sorted(pragmas.line_allow):
        if idx <= len(stripped_lines) and not stripped_lines[idx - 1].strip():
            for nxt in range(idx + 1, len(stripped_lines) + 1):
                if stripped_lines[nxt - 1].strip():
                    pragmas.line_allow.setdefault(nxt, set()).update(
                        pragmas.line_allow[idx]
                    )
                    break


def relpath(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def collect_files(paths: list[str], root: str) -> list[str]:
    out = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            out.append(full)
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, name))
    return sorted(set(out))
