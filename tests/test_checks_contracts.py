"""REP2xx contract rules: knob registry, metric/event catalogs, doc
coverage -- plus the ISSUE acceptance check that the repo itself is
clean under the full analysis."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.checks.callgraph import build_project, build_project_from_sources
from repro.checks.concurrency import run_concurrency
from repro.checks.contracts import (
    EVENT_CATALOG,
    KNOWN_KNOBS,
    METRIC_CATALOG,
    Knob,
    run_contracts,
)
from repro.checks.lint import run_lint

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _project(**sources: str):
    return build_project_from_sources(
        {name.replace("_", "."): textwrap.dedent(src) for name, src in sources.items()}
    )


def _codes(findings) -> set[str]:
    return {f.code for f in findings}


# -- REP201: undeclared knob ------------------------------------------------


def test_rep201_undeclared_knob_read():
    findings = run_contracts(
        _project(
            repro_a="""
            import os

            def read():
                return os.environ.get("REPRO_BOGUS_KNOB")
            """
        )
    )
    assert "REP201" in _codes(findings)
    assert any("REPRO_BOGUS_KNOB" in f.message for f in findings)


def test_rep201_declared_knob_is_fine():
    findings = run_contracts(
        _project(
            repro_a="""
            import os

            def read():
                return os.environ.get("REPRO_SCALE", "default")
            """
        )
    )
    assert "REP201" not in _codes(findings)


def test_rep201_matches_whole_string_only():
    # Help text *mentioning* a knob inside a sentence is not a read.
    findings = run_contracts(
        _project(
            repro_a="""
            HELP = "set REPRO_MYSTERY_KNOB to tune the flux"
            """
        )
    )
    assert "REP201" not in _codes(findings)


def test_rep201_noqa_suppresses():
    findings = run_contracts(
        _project(
            repro_a="""
            import os

            def read():
                return os.environ.get("REPRO_LEGACY_KNOB")  # noqa: REP201 - migration shim
            """
        )
    )
    assert "REP201" not in _codes(findings)


# -- REP202: undocumented knob ----------------------------------------------


_SCALE_READ = """
import os

def read():
    return os.environ.get("REPRO_SCALE")
"""


def test_rep202_knob_missing_from_docs():
    findings = run_contracts(_project(repro_a=_SCALE_READ), docs_text="nothing here")
    assert "REP202" in _codes(findings)


def test_rep202_documented_knob_is_fine():
    findings = run_contracts(
        _project(repro_a=_SCALE_READ), docs_text="| `REPRO_SCALE` | scale tier |"
    )
    assert "REP202" not in _codes(findings)


def test_rep202_skipped_without_docs_text():
    findings = run_contracts(_project(repro_a=_SCALE_READ), docs_text=None)
    assert "REP202" not in _codes(findings)


def test_rep202_test_scope_knob_exempt():
    findings = run_contracts(
        _project(
            repro_a="""
            import os

            def read():
                return os.environ.get("REPRO_TEST_KEEP_ENV")
            """
        ),
        docs_text="no knobs documented",
    )
    assert "REP202" not in _codes(findings)


# -- REP203 / REP204: metric and event catalogs -----------------------------


def test_rep203_uncatalogued_metric():
    findings = run_contracts(
        _project(
            repro_a="""
            def record(registry):
                registry.counter("bogus_metric_total").inc()
            """
        ),
        metrics=frozenset({"serve_requests_total"}),
    )
    assert "REP203" in _codes(findings)


def test_rep203_catalogued_metric_is_fine():
    findings = run_contracts(
        _project(
            repro_a="""
            def record(registry):
                registry.counter("serve_requests_total").inc()
            """
        ),
        metrics=frozenset({"serve_requests_total"}),
    )
    assert "REP203" not in _codes(findings)


def test_rep204_uncatalogued_event():
    findings = run_contracts(
        _project(
            repro_a="""
            from repro.obs.events import emit, span

            def hop():
                emit("mystery-hop", rid="r1")

            def phase():
                with span("mystery-phase", app="a"):
                    pass
            """
        ),
        events=frozenset({"admit"}),
    )
    rep204 = [f for f in findings if f.code == "REP204"]
    assert len(rep204) == 2
    assert any("'mystery-hop' (emit)" in f.message for f in rep204)
    assert any("'mystery-phase' (span)" in f.message for f in rep204)


def test_rep204_catalogued_event_is_fine():
    findings = run_contracts(
        _project(
            repro_a="""
            from repro.obs import events

            def hop():
                events.emit("admit", rid="r1")

            def phase():
                with events.span("harness-run", app="a") as run:
                    run["engine"] = "vector"
            """
        ),
        events=frozenset({"admit", "harness-run"}),
    )
    assert "REP204" not in _codes(findings)


# -- REP205: unused knob ----------------------------------------------------


def test_rep205_unread_runtime_knob():
    knobs = {
        "REPRO_GHOST": Knob("REPRO_GHOST", "runtime", "declared, never read"),
    }
    findings = run_contracts(_project(repro_a="x = 1\n"), knobs=knobs, check_unused=True)
    assert "REP205" in _codes(findings)


def test_rep205_read_knob_is_fine():
    knobs = {"REPRO_SCALE": KNOWN_KNOBS["REPRO_SCALE"]}
    findings = run_contracts(
        _project(repro_a=_SCALE_READ), knobs=knobs, check_unused=True
    )
    assert "REP205" not in _codes(findings)


def test_rep205_off_by_default():
    knobs = {
        "REPRO_GHOST": Knob("REPRO_GHOST", "runtime", "declared, never read"),
    }
    findings = run_contracts(_project(repro_a="x = 1\n"), knobs=knobs)
    assert "REP205" not in _codes(findings)


# -- registry sanity --------------------------------------------------------


def test_registry_names_match_their_keys():
    assert all(name == knob.name for name, knob in KNOWN_KNOBS.items())
    assert all(knob.scope in {"runtime", "test"} for knob in KNOWN_KNOBS.values())
    assert all(knob.description for knob in KNOWN_KNOBS.values())


def test_catalogs_are_nonempty_frozensets():
    assert isinstance(METRIC_CATALOG, frozenset) and METRIC_CATALOG
    assert isinstance(EVENT_CATALOG, frozenset) and EVENT_CATALOG


# -- ISSUE acceptance: the repo's own tree is clean -------------------------


def test_repo_passes_full_static_analysis():
    src = _REPO_ROOT / "src" / "repro"
    assert src.is_dir()
    docs_text = (_REPO_ROOT / "README.md").read_text() + (
        _REPO_ROOT / "DESIGN.md"
    ).read_text()
    project = build_project([src])
    findings = (
        run_lint([src])
        + run_concurrency(project)
        + run_contracts(project, docs_text=docs_text, check_unused=True)
    )
    assert findings == [], "\n".join(f.format() for f in findings)


def test_repo_baseline_is_empty():
    # The landing policy was fix-not-record; keep it that way.
    import json

    document = json.loads((_REPO_ROOT / "checks_baseline.json").read_text())
    assert document["findings"] == {}
