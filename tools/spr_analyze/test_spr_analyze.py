#!/usr/bin/env python3
"""Fixture proofs for spr_analyze: every rule must fire where the corpus
says it fires and stay silent on the sanctioned idioms.

Fixture convention: `*.cxx` files (and `*.hxx` headers) under fixtures/
carry `EXPECT[rule-name]` comment markers on the exact line a finding is
required. `*_pass.*` and `*_good.*` files carry no markers and must come
back clean. The pragma fixtures assert the escape-hatch machinery itself
(reason-required, unknown-rule rejection, same-line and comment-line
binding).

Run directly (`python3 test_spr_analyze.py`) or through ctest
(`spr_analyze_fixtures`).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import unittest

import rules
import spr_analyze

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))

_FIXTURES = os.path.join(_HERE, "fixtures")
_EXPECT_RE = re.compile(r"EXPECT\[([a-z\-]+)\]")


def expected_findings(path: str) -> set[tuple[int, str]]:
    out = set()
    with open(path) as f:
        for idx, line in enumerate(f, start=1):
            for m in _EXPECT_RE.finditer(line):
                out.add((idx, m.group(1)))
    return out


def analyze(path: str) -> set[tuple[int, str]]:
    findings = spr_analyze.analyze_files([path], _FIXTURES)
    return {(f.line, f.rule) for f in findings}


class FixtureCorpus(unittest.TestCase):
    """Marker-driven: findings must equal the EXPECT set, exactly."""

    def assert_fixture(self, name: str):
        path = os.path.join(_FIXTURES, name)
        self.assertEqual(analyze(path), expected_findings(path),
                         f"{name}: findings diverge from EXPECT markers")

    def test_arena_escape_fire(self):
        self.assert_fixture("arena_escape_fire.cxx")

    def test_arena_escape_pass(self):
        self.assert_fixture("arena_escape_pass.cxx")

    def test_view_lifetime_fire(self):
        self.assert_fixture("view_lifetime_fire.cxx")

    def test_view_lifetime_pass(self):
        self.assert_fixture("view_lifetime_pass.cxx")

    def test_determinism_taint_fire(self):
        self.assert_fixture("determinism_taint_fire.cxx")

    def test_determinism_taint_pass(self):
        self.assert_fixture("determinism_taint_pass.cxx")

    def test_merge_ordering_fire(self):
        self.assert_fixture("merge_ordering_fire.cxx")

    def test_merge_ordering_pass(self):
        self.assert_fixture("merge_ordering_pass.cxx")

    def test_line_rules_fire(self):
        self.assert_fixture("lint_fire.cxx")

    def test_line_rules_pass(self):
        self.assert_fixture("lint_pass.cxx")

    def test_serialize_layer(self):
        self.assert_fixture("serialize_bad.cxx")

    def test_header_bad(self):
        self.assert_fixture("header_bad.hxx")

    def test_header_good(self):
        self.assert_fixture("header_good.hxx")

    def test_every_rule_has_fire_coverage(self):
        """No rule may silently die: the corpus proves each one fires."""
        covered = set()
        for name in os.listdir(_FIXTURES):
            covered |= {r for _, r in expected_findings(
                os.path.join(_FIXTURES, name))}
        expected = set(rules.RULES) - {"pragma"}  # pragma: proven below
        self.assertEqual(covered & expected, expected,
                         "rules without a must-fire fixture")


class PragmaMachinery(unittest.TestCase):
    def test_pragma_fire(self):
        path = os.path.join(_FIXTURES, "pragma_fire.cxx")
        got = analyze(path)
        with open(path) as f:
            lines = f.readlines()
        no_reason = [i for i, l in enumerate(lines, 1)
                     if "allow(view-lifetime)" in l or "allow(raw-rng)" in l]
        unknown = next(i for i, l in enumerate(lines, 1)
                       if "made-up-rule" in l)
        self.assertEqual(len(no_reason), 2)
        self.assertEqual(got, {
            (no_reason[0], "pragma"),  # allow without a reason
            (no_reason[1], "pragma"),  # ... on a line rule's finding too
            (unknown, "pragma"),       # unknown rule name
            (unknown + 1, "view-lifetime"),  # bogus allow suppresses nothing
        })

    def test_pragma_pass(self):
        path = os.path.join(_FIXTURES, "pragma_pass.cxx")
        self.assertEqual(analyze(path), set(),
                         "justified same-line and comment-line pragmas "
                         "must suppress the findings they cover")


class Baseline(unittest.TestCase):
    def test_src_and_tools_are_clean(self):
        """The tree-wide zero-findings baseline the CI job gates."""
        files = spr_analyze.collect_files(["src", "tools"], _ROOT)
        findings = spr_analyze.analyze_files(files, _ROOT)
        self.assertEqual([str(f) for f in findings], [])


class Sarif(unittest.TestCase):
    def test_sarif_shape(self):
        path = os.path.join(_FIXTURES, "arena_escape_fire.cxx")
        findings = spr_analyze.analyze_files([path], _FIXTURES)
        self.assertTrue(findings)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.sarif")
            spr_analyze.write_sarif(findings, out)
            with open(out) as f:
                sarif = json.load(f)
        self.assertEqual(sarif["version"], "2.1.0")
        run = sarif["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "spr_analyze")
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for result in run["results"]:
            self.assertIn(result["ruleId"], rule_ids)
            loc = result["locations"][0]["physicalLocation"]
            self.assertGreaterEqual(loc["region"]["startLine"], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
