"""Check bookkeeping for scenario runs: one named result per check."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """A single named measurement compared against optional bounds."""

    name: str
    measured: float
    lower: float | None
    upper: float | None
    passed: bool
    detail: str = ""

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        bounds = []
        if self.lower is not None:
            bounds.append(f">= {self.lower:.3g}")
        if self.upper is not None:
            bounds.append(f"<= {self.upper:.3g}")
        line = f"{verdict} {self.name}: measured={self.measured:.6e}"
        if bounds:
            line += f" (required {' and '.join(bounds)})"
        if self.detail:
            line += f" [{self.detail}]"
        return line


@dataclass
class RunReport:
    """Ordered, duplicate-free collection of check results for one scenario."""

    scenario: str
    config: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, measured: float, upper: float | None = None,
            lower: float | None = None, detail: str = "") -> bool:
        """Record one check; returns whether it passed."""
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        measured = float(measured)
        passed = True
        if lower is not None and not measured >= lower:
            passed = False
        if upper is not None and not measured <= upper:
            passed = False
        self.checks.append(CheckResult(name=name, measured=measured,
                                       lower=lower, upper=upper, passed=passed,
                                       detail=detail))
        return passed

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for key in sorted(self.config):
            lines.append(f"  {key} = {self.config[key]}")
        lines.extend(c.render() for c in self.checks)
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(f"{len(self.checks)} checks, {n_fail} failed")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": dict(self.config),
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }
