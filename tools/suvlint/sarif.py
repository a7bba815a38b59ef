"""Minimal SARIF 2.1.0 writer for suvlint findings (CI artifact upload
and code-scanning ingestion)."""

from __future__ import annotations

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_LEVEL = {"error": "error", "warning": "warning", "note": "note"}


def to_sarif(findings, rules, tool_version: str) -> dict:
    rule_index = {}
    rule_descs = []
    for i, r in enumerate(rules):
        rule_index[r.id] = i
        rule_descs.append({
            "id": r.id,
            "shortDescription": {"text": r.doc},
            "defaultConfiguration": {"level": _LEVEL[r.severity]},
        })
    results = []
    for f in findings:
        res = {
            "ruleId": f.rule,
            "ruleIndex": rule_index.get(f.rule, -1),
            "level": _LEVEL[f.severity],
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path,
                                         "uriBaseId": "SRCROOT"},
                    "region": {"startLine": f.line},
                }
            }],
        }
        if f.suppressed:
            res["suppressions"] = [{
                "kind": "inSource",
                "justification": f.suppressed,
            }]
        results.append(res)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "suvlint",
                "version": tool_version,
                "informationUri":
                    "DESIGN.md section 15 (static analysis)",
                "rules": rule_descs,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }


def write_sarif(path, findings, rules, tool_version: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_sarif(findings, rules, tool_version), fh, indent=2)
        fh.write("\n")
