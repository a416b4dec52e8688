"""citefrac: fractional citation counting for cross-disciplinary
research evaluation.

Citations are weighted 1/k by the citing paper's reference-list length,
aggregated per organizational unit over citation windows, ranked, and
tested for significance (Kruskal-Wallis, Levene, ANOVA, Dunnett's C), with
the pairwise outcomes summarized as a homogeneity graph.
"""
from .corpus import (
    Corpus,
    PublicationRecord,
    UnitRow,
    build_corpus,
    load_aggregate_table,
    load_canonical,
    parse_tagged,
    write_canonical,
)
from .counting import (
    PaperImpact,
    ScoreSet,
    Window,
    aggregate_units,
    paper_scores,
    per_paper_samples,
)
from .report import (
    HomogeneityGraph,
    Ranking,
    build_homogeneity_graph,
    emit_graph_dot,
    rank_change,
    rank_units,
    unit_columns,
)
from .unitquery import (
    UnitDefinition,
    assign_units,
    match_record,
    parse_query,
    parse_unit_definitions,
    to_text,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "HomogeneityGraph",
    "PaperImpact",
    "PublicationRecord",
    "Ranking",
    "ScoreSet",
    "UnitDefinition",
    "UnitRow",
    "Window",
    "aggregate_units",
    "assign_units",
    "build_corpus",
    "build_homogeneity_graph",
    "emit_graph_dot",
    "load_aggregate_table",
    "load_canonical",
    "match_record",
    "paper_scores",
    "parse_query",
    "parse_tagged",
    "parse_unit_definitions",
    "per_paper_samples",
    "rank_change",
    "rank_units",
    "to_text",
    "unit_columns",
    "write_canonical",
]
