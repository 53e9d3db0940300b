"""Registry hygiene: no silently-shadowed queries or oracles.

Python dict literals and repeated ``ORACLES[k] =`` / ``QUERIES.update``
assignments are last-binding-wins, so a re-used name silently replaces
an earlier operator while every sweep stays green (it happened twice:
q_funnel/q_inverted_index in round 5's first session, q_cube in its
second).  These tests parse the SOURCE, not the built dicts, so a
duplicate can't hide behind the very semantics that cause the bug.
"""

import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "bb_ocr_ray" / "pipelines"


def _dupes(names):
    return {k: v for k, v in Counter(names).items() if v > 1}


def test_no_duplicate_oracle_keys():
    src = (SRC / "oracles.py").read_text()
    keys = re.findall(r'ORACLES\["(\w+)"\]\s*=', src)
    assert not _dupes(keys), f"shadowed oracle keys: {_dupes(keys)}"


def test_no_duplicate_query_defs_or_registrations():
    src = (SRC / "queries.py").read_text()
    defs = re.findall(r"^def (q\w+)\(", src, re.M)
    assert not _dupes(defs), f"shadowed query functions: {_dupes(defs)}"
    # registry names are q_<name> or q<digit><name> (q1/q5/q6); the
    # narrower class keeps row-dict keys like "query_id"/"qlabel" out
    regs = re.findall(r'"(q_\w+|q\d\w*)"\s*:', src)
    assert not _dupes(regs), f"double-registered query names: {_dupes(regs)}"


def test_registry_and_oracles_align():
    # every query has an oracle and vice versa (the driver records a
    # weaker rows-only check for missing oracles — keep that set empty)
    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import QUERIES

    assert set(QUERIES) == set(ORACLES), (
        sorted(set(QUERIES) ^ set(ORACLES)))


def test_correctness_artifact_queries_are_registered():
    # the correctness gate runs every query named in the committed
    # CORRECTNESS artifact; deleting one from either dict would turn a
    # checked query into a missing one
    import json

    from bb_ocr_ray.pipelines.oracles import ORACLES
    from bb_ocr_ray.pipelines.queries import QUERIES

    checked = json.loads(
        (SRC.parent.parent / "CORRECTNESS_r05.json").read_text())
    assert len(checked) == 50
    assert not set(checked) - set(QUERIES), sorted(set(checked) - set(QUERIES))
    assert not set(checked) - set(ORACLES), sorted(set(checked) - set(ORACLES))


def test_docs_name_only_registered_operators():
    # the docs describe operators by registry name; a deleted operator
    # left in a doc row reads as a live feature
    from bb_ocr_ray.pipelines.queries import QUERIES

    stale = {}
    for doc in ("COVERAGE.md", "SCALE.md", "README.md"):
        text = (SRC.parent.parent / doc).read_text()
        names = set(re.findall(r"\bq\d?_[a-z0-9_]*[a-z0-9]\b", text))
        if names - set(QUERIES):
            stale[doc] = sorted(names - set(QUERIES))
    assert not stale, f"docs name unregistered operators: {stale}"


# Top-level names in bb_ocr_ray/ that nothing else in the package
# references and that are kept on purpose, each with its reason.  It is
# empty: every package name has a caller, and test-only helpers live
# under tests/.  A helper orphaned by a deletion fails the test below,
# and so does an entry here that has gained a reference or gone.
_ORPHAN_ALLOW: set = set()


def _orphaned_names(root: Path) -> set:
    """Top-level def/class/assign names under ``root`` with no
    word-boundary reference anywhere in the package outside their own
    definition's lines.  Dunder names (``__version__``) are module
    protocol, read from outside the package, and are not counted."""
    import ast

    files = {p: p.read_text() for p in sorted(root.rglob("*.py"))}
    lines = {p: src.split("\n") for p, src in files.items()}
    orphans = set()
    for p, src in files.items():
        for node in ast.parse(src).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("__") and name.endswith("__"):
                    continue
                pat = re.compile(rf"\b{re.escape(name)}\b")
                if not any(pat.search(line)
                           for q, ls in lines.items()
                           for i, line in enumerate(ls, 1)
                           if not (q == p and node.lineno <= i
                                   <= node.end_lineno)):
                    orphans.add(f"{p.relative_to(root).as_posix()}:{name}")
    return orphans


def test_no_orphaned_helpers():
    orphans = _orphaned_names(SRC.parent)
    assert not orphans - _ORPHAN_ALLOW, (
        f"newly orphaned: {sorted(orphans - _ORPHAN_ALLOW)}")
    assert not _ORPHAN_ALLOW - orphans, (
        f"stale allow-list entries: {sorted(_ORPHAN_ALLOW - orphans)}")


def _unused_module_imports(root: Path) -> set:
    """Names bound by a module-level import (also inside a module-level
    ``try``/``if``) under ``root`` that no expression of the module
    reads.  ``from __future__`` imports and a line marked ``noqa: F401``
    (a deliberate re-export) are not counted."""
    import ast

    unused = set()
    for p in sorted(root.rglob("*.py")):
        src = p.read_text()
        tree = ast.parse(src)
        lines = src.split("\n")
        stmts, bound = list(tree.body), {}
        while stmts:
            node = stmts.pop()
            if isinstance(node, ast.If):
                stmts += node.body + node.orelse
            elif isinstance(node, ast.Try):
                stmts += node.body + node.orelse + node.finalbody + [
                    s for h in node.handlers for s in h.body]
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  and "noqa: F401" not in lines[node.lineno - 1]):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    bound[name] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {f"{p.relative_to(root).as_posix()}:{line}:{name}"
                   for name, line in bound.items() if name not in read}
    return unused


def test_no_unused_module_imports():
    # no linter runs here; a deletion must not leave its imports behind
    unused = _unused_module_imports(SRC.parent)
    assert not unused, f"unused module-level imports: {sorted(unused)}"


# Every direct ``.groupby(...).map_groups(...)`` in bb_ocr_ray/, as
# "file:top-level function" -> count.  Every coarse fold whose in-bucket
# work is bucket-oblivious (a per-key fold whose keys never straddle
# buckets) runs through ``sizing.fold_buckets``, which skips the shuffle
# when the side fits the driver; a new site here is an ungated shuffle,
# so adding one is a decision this list records.  Each site left says
# why it is not such a fold.
_MAP_GROUPS_ALLOW = Counter({
    # the one gated fold itself
    "stages/sizing.py:fold_buckets": 1,
    # the shuffle arm of the join gate: both sides co-bucketed in one
    # union and joined by its one in-bucket body; the driver arm is the
    # broadcast join
    "stages/joins.py:hash_join": 1,
    # star rounds run only when the pair graph did not fit the driver,
    # each round re-shuffling the previous round's edges
    "stages/dedup.py:connected_components_ds": 1,
    # groups on the raw prefix key: each group reads its one prefix's
    # global rank offset
    "stages/dedup.py:sorted_neighborhood_pairs": 1,
    # a bucket-oblivious rebuild, but it runs only when the frequent-line
    # table did not fit the driver, behind the flagging hash_join, where
    # fold_buckets would always shuffle
    "stages/boilerplate.py:remove_boilerplate": 1,
    # raw query_id groups: the top-k keeps k rows per group
    "stages/ann.py:ann_topk": 1,
    # raw (kind, query_id) and query_id groups: per-group top-k/radius
    "stages/ann.py:ivf_topk_exact": 3,
    # each bucket replays, in event-time order, into its one actor
    "stages/streaming.py:sessionize_watermark": 1,
})


def _groupby_sites(root: Path, op: str) -> Counter:
    """Every ``.groupby(...).<op>(...)`` call under ``root``, as
    "file:top-level function" -> count."""
    import ast

    sites = Counter()
    for p in sorted(root.rglob("*.py")):
        for top in ast.parse(p.read_text()).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                if (isinstance(f, ast.Attribute) and f.attr == op
                        and isinstance(f.value, ast.Call)
                        and isinstance(f.value.func, ast.Attribute)
                        and f.value.func.attr == "groupby"):
                    sites[f"{p.relative_to(root).as_posix()}:{name}"] += 1
    return sites


def test_map_groups_sites_pinned():
    sites = _groupby_sites(SRC.parent, "map_groups")
    assert sites == _MAP_GROUPS_ALLOW, (
        f"new: {dict(sites - _MAP_GROUPS_ALLOW)}, "
        f"gone: {dict(_MAP_GROUPS_ALLOW - sites)}")


def test_no_native_grouped_aggregates():
    """Every grouped aggregate goes through ``coarse.coarse_agg`` (or a
    per-key fold through ``coarse.grouped_per_key``), both gated by
    ``sizing.fold_buckets``; a Ray ``groupby().aggregate`` would pay a
    sort shuffle even for a few rows."""
    assert not _groupby_sites(SRC.parent, "aggregate")
    imports = [p.relative_to(SRC.parent).as_posix()
               for p in sorted(SRC.parent.rglob("*.py"))
               if "ray.data.aggregate" in p.read_text()]
    assert not imports, imports
