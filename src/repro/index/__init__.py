"""Tuple indexes for the top-k maintenance of §III-C.

``KDTree`` is the tuple index (TI): a k-d tree over the database points
supporting branch-and-bound max-inner-product top-k queries and
score-range queries under nonnegative utility vectors, with tombstone
deletions and amortized subtree rebuilds. ``QuadTree`` is the
alternative tuple index the ablation compares against.

The paper's utility index (UI), a cone tree over the sampled utilities,
has no counterpart here: ``ApproxTopKIndex`` already scores an inserted
point against every utility, so it filters with one vector comparison
against its threshold array instead.
"""

from repro.index.kdtree import KDTree
from repro.index.quadtree import QuadTree

__all__ = ["KDTree", "QuadTree"]
