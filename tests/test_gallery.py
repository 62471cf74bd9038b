from __future__ import annotations

import pytest

from schrobridge import gallery


def test_scenario_names_are_stable():
    assert list(gallery.scenario_names()) == [
        "example1", "example2", "quantum-free"]


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        gallery.run_scenario("example3")


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_closed_form_suites_pass(name, gallery_report):
    report = gallery_report(name)
    assert report.all_passed, report.render_text()
    assert report.scenario == name
    assert len(report.checks) >= 10


def test_quantum_free_suite_passes(gallery_report):
    # the slowest suite: refinement pairs, transitions, and seeded paths
    report = gallery_report("quantum-free")
    assert report.all_passed, report.render_text()
    names = [c.name for c in report.checks]
    assert "hopf-cole-roundtrip" in names
    assert "backward-mc-ks" in names
