#!/usr/bin/env python3
"""spr_analyze: the static analyzer for the spr tree's determinism contracts.

Nine rules, each proven by the fixture corpus (fixtures/). Four follow
values over a micro-AST: arena scratch escaping its reset() scope, spans
outliving the topology epoch that built them, nondeterministic values
flowing through assignments into report/serialize/merge sinks, and
parallel callbacks whose shared writes skip the id-ordered merge
discipline. Five are line rules that ban tokens outright: wall clock,
thread ids and %p pointer formats; randomness outside the seeded RNG;
hash-order iteration; raw new/delete; and header hygiene. See rules.py
for the rule catalog and tools/spr_analyze/README.md for the contract
each rule defends.

The front end is a self-contained token/micro-AST pass (model.py) that
needs nothing beyond the Python standard library.

Inputs: files/directories, `src tools` by default. Findings print as
`path:line: [rule] message`; `--sarif out.sarif` additionally writes
SARIF 2.1.0 for code-scanning upload.

False positives are silenced per line with a justified pragma:

    foo();  // spr-analyze: allow(arena-escape) reason why this is fine

or file-wide in the first 10 lines:

    // spr-analyze-file: allow(determinism-taint) reason

A pragma with no reason text is itself a finding.

Exit status: 0 when clean, 1 when any finding, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import model
from rules import (RULES, check_arena_escape, check_determinism_taint,
                   check_header_hygiene, check_merge_ordering, check_raw_new,
                   check_raw_rng, check_unordered_iter, check_view_lifetime,
                   check_view_members, check_wallclock,
                   compute_taint_summaries, _sink_names)
from spr_source import (Finding, bind_comment_pragmas, collect_files,
                        parse_pragmas, relpath, strip_comments_and_strings)

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

def analyze_files(files: list[str], root: str) -> list[Finding]:
    """Parses every file, builds the cross-file registry, runs the rules."""
    registry = model.Registry()
    per_file: list[tuple[str, model.FileModel, list[str], list[str],
                         list[str]]] = []
    findings: list[Finding] = []

    for path in files:
        rel = relpath(path, root)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            findings.append(Finding(rel, 0, "pragma", f"unreadable: {e}"))
            continue
        raw_lines = text.split("\n")
        stripped = strip_comments_and_strings(text)
        # The `%p` ban is the one check that reads inside string literals.
        with_strings = (strip_comments_and_strings(text, keep_strings=True)
                        if "%p" in text else stripped)
        fm = model.parse_file(rel, stripped)
        registry.add(fm)
        per_file.append((rel, fm, raw_lines, stripped, with_strings))

    # Interprocedural-lite summaries need the whole registry first.
    tainted_fns = compute_taint_summaries(registry)
    sink_names = _sink_names(registry)

    for rel, fm, raw_lines, stripped, with_strings in per_file:
        pragmas = parse_pragmas(raw_lines, findings, rel, RULES)
        bind_comment_pragmas(pragmas, stripped)

        def emit(line_no: int, rule: str, message: str,
                 _rel=rel, _pragmas=pragmas):
            if _pragmas.allows(line_no, rule):
                return
            findings.append(Finding(_rel, line_no, rule, message))

        for cls in fm.classes:
            check_view_members(cls, emit)
        for fn in fm.functions:
            check_arena_escape(fn, registry, emit)
            check_view_lifetime(fn, registry, emit)
            check_determinism_taint(fn, registry, tainted_fns, sink_names,
                                    emit)
            check_merge_ordering(fn, registry, emit)
        check_wallclock(stripped, with_strings, emit)
        check_raw_rng(rel, stripped, emit)
        check_raw_new(stripped, emit)
        check_unordered_iter(fm, stripped, emit)
        check_header_hygiene(rel, raw_lines, stripped, emit)

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    unique: list[Finding] = []
    for f in findings:
        if not unique or str(f) != str(unique[-1]):
            unique.append(f)
    return unique


def write_sarif(findings: list[Finding], path: str) -> None:
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(1, f.line)},
                    }
                }
            ],
        }
        for f in findings
    ]
    sarif = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
        "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "spr_analyze",
                        "informationUri":
                            "tools/spr_analyze/README.md",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": doc},
                            }
                            for rule, doc in sorted(RULES.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    with open(path, "w") as f:
        json.dump(sarif, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tools)")
    parser.add_argument("--root", default=_ROOT,
                        help="repo root findings are reported relative to")
    parser.add_argument("--sarif", default="",
                        help="also write SARIF 2.1.0 to this path")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, doc in RULES.items():
            print(f"{name:18} {doc}")
        return 0

    files = collect_files(args.paths or ["src", "tools"], args.root)
    if not files:
        print("spr_analyze: no input files", file=sys.stderr)
        return 2

    findings = analyze_files(files, args.root)
    for finding in findings:
        print(finding)
    if args.sarif:
        write_sarif(findings, args.sarif)
    print(f"spr_analyze: {len(files)} files, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
