"""SARIF 2.1.0 rendering for the whole-program lint report.

One ``run`` per invocation: the tool driver advertises every rule, each
violation becomes a ``result`` with a physical location, the engine's
content fingerprint rides in ``partialFingerprints`` (so SARIF viewers
dedupe across commits the same way the baseline does), and
``baselineState`` distinguishes ``new`` findings from ``unchanged``
grandfathered ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.analysis.engine import AnalysisReport, Project, _fingerprints
from repro.analysis.rules_interproc import ALL_RULES
from repro.analysis.simlint import Violation

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "render_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

TOOL_NAME = "simlint"
TOOL_URI = "https://example.invalid/repro/docs/static_analysis.md"


def _rule_descriptors(rule_ids: Iterable[str]) -> List[Dict[str, object]]:
    return [{
        "id": rid,
        "shortDescription": {"text": ALL_RULES[rid]},
        "defaultConfiguration": {"level": "error"},
    } for rid in sorted(rule_ids)]


def _artifact_uri(path: str, project: Optional[Project]) -> str:
    if project is not None:
        return project.rel_path(Path(path)).replace("\\", "/")
    return str(path).replace("\\", "/")


def _result(v: Violation, uri: str, fingerprint: str,
            baseline_state: str) -> Dict[str, object]:
    return {
        "ruleId": v.rule,
        "level": "error",
        "message": {"text": v.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": uri},
                "region": {"startLine": v.line, "startColumn": v.col},
            },
        }],
        "partialFingerprints": {"simlintContent/v1": fingerprint},
        "baselineState": baseline_state,
    }


def render_sarif(report: AnalysisReport,
                 sources: Dict[str, List[str]],
                 project: Optional[Project] = None) -> str:
    """Serialize an :class:`AnalysisReport` as a SARIF 2.1.0 document."""
    fps = _fingerprints(report.violations, sources)
    new = set(map(id, report.new))
    results = []
    for v, fp in zip(report.violations, fps):
        uri = _artifact_uri(v.path, project)
        state = "new" if id(v) in new else "unchanged"
        results.append(_result(v, uri, fp, state))
    doc = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": TOOL_NAME,
                    "informationUri": TOOL_URI,
                    "rules": _rule_descriptors(ALL_RULES),
                },
            },
            "columnKind": "unicodeCodePoints",
            "results": results,
            "properties": {
                "filesChecked": report.files_checked,
                "pragmasUsed": report.pragmas_used,
                "waiversByRule": dict(sorted(
                    report.waivers_by_rule.items())),
                "grandfathered": len(report.grandfathered),
                "staleBaselineEntries": len(report.stale_baseline),
            },
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
