"""Finding model shared by the lint rules, baseline, and CLI.

A finding is one rule violation at one source location.  Its
*fingerprint* deliberately excludes the line number so that committed
baselines survive unrelated edits above the finding: two findings with
the same rule, file, enclosing symbol, and normalized source text are
considered the same grandfathered violation (disambiguated by an
occurrence index when a symbol repeats the same line).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["Finding", "assign_occurrences"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: rule identifier (``R001``, ``T001``, ``C001``, ``P007``, ...).
        path: file path as given to the linter (posix separators).
        line: 1-based line number of the violation.
        column: 0-based column offset.
        message: human-readable description.
        symbol: dotted name of the enclosing class/function scope, or
            ``<module>`` for module-level code.
        source_line: the stripped source text of the offending line.
        occurrence: 0-based index among findings sharing the same
            (rule, path, symbol, source_line) — keeps fingerprints
            unique when one symbol repeats an offending construct.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    symbol: str = "<module>"
    source_line: str = ""
    occurrence: int = field(default=0, compare=False)

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        return "|".join(
            (
                self.rule,
                self.path,
                self.symbol,
                self.source_line,
                str(self.occurrence),
            )
        )

    def render(self) -> str:
        """One-line ``path:line:col: RULE message`` report form."""
        return f"{self.path}:{self.line}:{self.column + 1}: {self.rule} {self.message}"


def assign_occurrences(findings: list[Finding]) -> list[Finding]:
    """Stamp occurrence indexes so repeated identical lines fingerprint
    uniquely (findings must be in source order per file)."""
    counter: Counter[tuple[str, str, str, str]] = Counter()
    stamped = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.symbol, finding.source_line)
        stamped.append(
            Finding(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                column=finding.column,
                message=finding.message,
                symbol=finding.symbol,
                source_line=finding.source_line,
                occurrence=counter[key],
            )
        )
        counter[key] += 1
    return stamped
