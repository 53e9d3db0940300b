"""Engine configuration.

Replaces the reference's env-var flags and scattered constants
(``pipeline_demo/extractor/enhanced_extractor.py:102-132``) with one
frozen dataclass validated at pipeline-build time (SURVEY.md M15).
All thresholds that affect extraction output are HERE and nowhere else,
so byte-identity of extracted text is a function of (html, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExtractConfig:
    """Knobs of the extraction kernel (normalize -> segment -> classify -> emit)."""

    # --- normalize (M1 analog: deterministic preprocess chain) ---
    charset_sniff_bytes: int = 4096      # bytes scanned for <meta charset>/xml decl

    # --- segment / classify (M3 analog: auto text-region crop) ---
    max_tag_depth: int = 64              # tag_path depth cap (deep-nesting guard)
    min_block_chars: int = 10            # blocks shorter than this are boilerplate
    max_link_density: float = 0.50       # blocks with more linked chars are navigation
    # ancestors whose subtree is always boilerplate (structural classifier)
    drop_ancestors: frozenset = frozenset({"nav", "header", "footer", "aside"})

    # --- emit (M5 analog: reading-order fragment join) ---
    block_separator: str = "\n\n"        # deterministic separator between kept blocks

    # --- skew / megadoc handling (M4 analog: oversize guard) ---
    max_html_bytes: int = 8 * 1024 * 1024   # larger docs flagged + truncated


@dataclass(frozen=True)
class PipelineConfig:
    """Physical-execution knobs for the Ray Data pipeline (SURVEY.md §4)."""

    # Megadoc skew handling in production runs: when set, the resumable
    # runner re-cuts pages into blocks whose summed html bytes stay
    # under this budget (stages/sizing.split_by_bytes + block_budget).
    # None = off (fine for uniform small pages).
    payload_block_budget_mb: int | None = None
    extract: ExtractConfig = field(default_factory=ExtractConfig)


DEFAULT_EXTRACT = ExtractConfig()
DEFAULT_PIPELINE = PipelineConfig()
