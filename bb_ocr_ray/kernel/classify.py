"""Stage 3: text-block classification (content vs boilerplate).

The analog of the reference's contour area filter + union-bbox keep
decision (``enhanced_extractor.py:287-329``: boxes outside
[1e-4, 0.10] of image area are discarded; survivors union into the
text region).  For web pages the features are the Boilerpipe /
trafilatura-style trio from the north_rule: text density, link
density, tag depth/position — all computed during segmentation.

Rules (ordered, all deterministic, thresholds in ExtractConfig):
  1. structural drop: any ancestor in {nav, header, footer, aside};
  2. link-density drop: link_chars / raw_chars > max_link_density
     (navigation lists, footers, related-links boxes);
  3. length drop: collapsed text shorter than min_block_chars
     (button labels, stray separators).
A block passing all three is content.
"""

from __future__ import annotations

from typing import NamedTuple

from bb_ocr_ray.config import DEFAULT_EXTRACT, ExtractConfig
from bb_ocr_ray.kernel.normalize import collapse_ws


class ClassifiedBlock(NamedTuple):
    """One classified block.  The first six fields are
    ``schema.BLOCK_STRUCT``'s, in its order; ``text`` (the collapsed
    block text that ``emit`` joins) is not an output column."""

    block_id: int
    tag_path: str
    depth: int
    text_density: float
    link_density: float
    is_content: bool
    text: str


def classify(blocks: list, cfg: ExtractConfig = DEFAULT_EXTRACT) -> list:
    """RawBlocks -> ClassifiedBlocks, same order."""
    max_link_density = cfg.max_link_density
    min_block_chars = cfg.min_block_chars
    new = tuple.__new__     # skips the NamedTuple's Python __new__
    out = []
    for block_id, tag_path, depth, dropped, raw, raw_chars, link_chars, n_tags in blocks:
        text = collapse_ws(raw)
        n = len(text)
        link_density = link_chars / raw_chars if raw_chars else 0.0
        out.append(new(ClassifiedBlock, (
            block_id, tag_path, depth, n / max(1, n_tags), link_density,
            not dropped and link_density <= max_link_density and n >= min_block_chars,
            text)))
    return out
