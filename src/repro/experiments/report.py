"""Markdown report generation.

Collects every reproduced table/figure (and optionally the ablations)
for one configuration and renders a single markdown document — the
machine-generated companion to the hand-written EXPERIMENTS.md.

Usage::

    python -m repro.experiments.report --scale small -o report.md
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.experiments import ablations, figures, tables
from repro.experiments.results import TableResult

__all__ = ["generate_report", "main"]

_TABLE_SECTIONS: tuple[tuple[str, str], ...] = (
    ("table1", "Datasets"),
    ("table3", "TF-IDF accuracy"),
    ("table4", "TF-IDF legitimate recall/precision"),
    ("table5", "TF-IDF illegitimate recall/precision"),
    ("table6", "TF-IDF AUC-ROC"),
    ("table7", "N-Gram Graphs accuracy"),
    ("table8", "N-Gram Graphs legitimate recall/precision"),
    ("table9", "N-Gram Graphs illegitimate recall/precision"),
    ("table10", "N-Gram Graphs AUC-ROC"),
    ("table11", "Top linked-to domains"),
    ("table12", "Network accuracy/AUC"),
    ("table13", "Network precision/recall"),
    ("table14", "Ensemble classification"),
    ("table15", "Ranking pairwise orderedness"),
    ("table16", "Model over time — AUC"),
    ("table17", "Model over time — legitimate precision"),
)

_ABLATIONS: tuple[tuple[str, str], ...] = (
    ("sampling_ablation", "Sampling strategies"),
    ("trustrank_ablation", "TrustRank damping / seeds"),
    ("ngg_parameter_ablation", "N-Gram-Graph rank"),
    ("ranking_combiner_ablation", "Ranking combiner"),
    ("representation_ablation", "Text representations"),
    ("trust_algorithm_ablation", "Trust algorithms"),
    ("label_noise_ablation", "Label noise"),
    ("review_effort_experiment", "Reviewer effort"),
    ("auxiliary_sites_ablation", "Auxiliary sites"),
    ("term_selection_ablation", "Term-budget policy"),
    ("seed_stability_experiment", "Seed stability"),
    ("gray_zone_experiment", "Gray zone (\u00a76.1)"),
)


def _escape_cell(text: str) -> str:
    """Escape markdown table syntax in a cell value.

    Corpus-derived strings (domain names, page-derived terms) end up in
    table cells; a stray ``|`` or newline would break the table, and a
    crafted value could inject markup into the rendered report."""
    return (
        text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", " ").strip()
    )


def _as_markdown(table: TableResult, precision: int = 3) -> str:
    from repro.experiments.results import format_value

    header = "| " + " | ".join(_escape_cell(str(c)) or " " for c in table.columns) + " |"
    rule = "|" + "|".join("---" for _ in table.columns) + "|"
    body = [
        "| "
        + " | ".join(_escape_cell(format_value(cell, precision)) for cell in row)
        + " |"
        for row in table.rows
    ]
    lines = [header, rule, *body]
    for note in table.notes:
        lines.append(f"\n*{note}*")
    return "\n".join(lines)


def generate_report(
    config: ExperimentConfig, include_ablations: bool = True
) -> str:
    """Build the full markdown report (runs every experiment)."""
    parts: list[str] = [
        "# Reproduction report — "
        "*An Automated System for Internet Pharmacy Verification* (EDBT 2018)",
        "",
        f"Scale preset: `{config.scale}`, {config.n_folds}-fold CV, "
        f"term subsets {config.term_subsets}.",
        "",
        "## Paper tables",
    ]
    from repro.experiments.runner import _TABLE_BUILDERS

    for table_id, section in _TABLE_SECTIONS:
        table = _TABLE_BUILDERS[table_id](config)
        parts.append(f"\n### {table_id} — {section}\n")
        parts.append(_as_markdown(table))

    parts.append("\n## Paper figures\n")
    parts.append("### figure2 — N-Gram-Graph process\n")
    parts.append("```\n" + figures.figure2_pipeline_trace().render() + "\n```")
    parts.append("\n### figure3 — TrustRank propagation\n")
    parts.append(_as_markdown(figures.figure3_trustrank_demo(), precision=4))

    if include_ablations:
        parts.append("\n## Ablations\n")
        for fn_name, section in _ABLATIONS:
            fn = getattr(ablations, fn_name)
            parts.append(f"\n### {fn_name} — {section}\n")
            parts.append(_as_markdown(fn(config)))

    return "\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate the markdown report")
    parser.add_argument("--scale", default="small")
    parser.add_argument("--no-ablations", action="store_true")
    parser.add_argument("-o", "--output", default="report.md")
    args = parser.parse_args(argv)
    config = ExperimentConfig(scale=args.scale)
    start = time.time()
    report = generate_report(config, include_ablations=not args.no_ablations)
    Path(args.output).write_text(report)
    print(f"wrote {args.output} in {time.time() - start:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
