"""Grouping of users and the aggregation tree above the groups.

Users 0..N-1 are packed into consecutive groups of size K+T+D: user n sits
in group n // group_size at slot n % group_size.  Groups form a tree whose
root is the server; the server has exactly one child, the last group, so a
single group's messages ever touch the server.  Messages between adjacent
groups travel slot-to-slot: slot t of a group talks only to slot t of its
parent.

A tree is held as arrays over its groups, built once per tree by list
ranking with pointer jumping (Wyllie 1979): ceil(log2 G) doubling passes
over the parent array give every group's depth, its subtree's size and
the contiguous postorder range of its subtree, with no walk over the
groups in Python.  The layout is read-only, so a named shape's tree is
built once per group count and shared by every round that asks for it.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .errors import (
    BadK,
    BadRoot,
    IndivisibleGroups,
    InvalidParams,
    NotATree,
    ThresholdViolation,
)

#: Receiver sentinel for the tree root.
SERVER = "server"

TreeShape = Union[str, Mapping[int, Union[int, str]]]


@dataclass(frozen=True)
class ProtocolParams:
    """Validated sizing of one aggregation run.

    ``t_max`` is the collusion tolerance (how many users may pool their
    views), ``d_max`` the dropout budget the design must survive, and
    ``k_parts`` how many segments each model is cut into.  Group size is
    k_parts + t_max + d_max and must divide ``n_users``.
    """

    n_users: int
    t_max: int
    d_max: int
    k_parts: int
    model_len: int
    entry_bound: int

    @property
    def group_size(self) -> int:
        return self.k_parts + self.t_max + self.d_max

    @property
    def num_groups(self) -> int:
        return self.n_users // self.group_size

    @property
    def seg_len(self) -> int:
        return -(-self.model_len // self.k_parts)

    @property
    def blocks_shape(self) -> tuple[int, int, int]:
        """(N, K+T, S): the shape of a round's coefficient array."""
        return (self.n_users, self.k_parts + self.t_max, self.seg_len)


def make_params(
    n_users: int,
    t_max: int,
    d_max: int,
    k_parts: int,
    model_len: int,
    entry_bound: int,
) -> ProtocolParams:
    """Validate and freeze protocol parameters.

    Raises InvalidParams on a count out of range, ThresholdViolation when
    t_max >= n_users - d_max (no room for a single honest survivor's worth
    of sharing), BadK when k_parts falls outside [1, n_users - t_max -
    d_max] and IndivisibleGroups when the implied group size does not
    divide n_users.
    """
    if n_users < 1:
        raise InvalidParams(f"n_users must be >= 1, got {n_users}")
    if t_max < 0 or d_max < 0:
        raise InvalidParams(f"t_max and d_max must be >= 0, got {t_max}, {d_max}")
    if model_len < 1:
        raise InvalidParams(f"model_len must be >= 1, got {model_len}")
    if entry_bound < 2:
        raise InvalidParams(f"entry_bound must be >= 2, got {entry_bound}")
    if t_max >= n_users - d_max:
        raise ThresholdViolation(
            f"t_max={t_max} must be < n_users - d_max = {n_users - d_max}"
        )
    k_cap = n_users - t_max - d_max
    if not 1 <= k_parts <= k_cap:
        raise BadK(f"k_parts={k_parts} outside [1, {k_cap}]")
    group_size = k_parts + t_max + d_max
    if n_users % group_size != 0:
        raise IndivisibleGroups(
            f"group size {group_size} does not divide n_users={n_users}"
        )
    return ProtocolParams(
        n_users=n_users,
        t_max=t_max,
        d_max=d_max,
        k_parts=k_parts,
        model_len=model_len,
        entry_bound=entry_bound,
    )


class AggregationTree:
    """Tree over group indices 0..num_groups-1 rooted at the server.

    Construct via :func:`build_tree`, or directly from a full parent map
    {group: parent-group-or-SERVER}.  Validation enforces: every group
    appears once, exactly the last group hangs under the server, and every
    group reaches the server (no cycles, no orphans).

    The layout arrays are read-only, since one tree may serve many rounds:
    ``parents`` (G, the server's index, for the last group), ``depth``
    (edges below the last group), ``upward`` (groups by depth, deepest
    first), and ``postorder`` with ``subtree_lo``/``subtree_hi``: group g's
    subtree is ``postorder[subtree_lo[g] : subtree_hi[g]]``, with g last and
    siblings in ascending order.  ``height`` is the largest depth, an int.
    """

    def __init__(self, parent: Mapping[int, Union[int, str]]):
        for g in parent:
            if type(g) is not int:
                raise NotATree(f"key {g!r} is not a group index")
        groups = sorted(parent)
        num = len(groups)
        if num == 0 or groups != list(range(num)):
            raise NotATree(f"parent map must cover groups 0..{num - 1} exactly")
        server_children = [g for g, par in parent.items() if par == SERVER]
        if server_children != [num - 1]:
            raise BadRoot(
                f"the server must have exactly one child, group {num - 1}; "
                f"got {sorted(server_children)}"
            )
        for g in groups[:-1]:
            par = parent[g]
            if type(par) is not int or not 0 <= par < num:
                raise NotATree(f"group {g} has unknown parent {par!r}")
            if par == g:
                raise NotATree(f"group {g} is its own parent")
        self._lay_out(np.array([parent[g] for g in groups[:-1]] + [num]))

    def _lay_out(self, parents: np.ndarray) -> None:
        """Lay out the tree from its (G,) parent array, in which only the last
        group's parent is G, the server; a cycle raises NotATree.

        Pointer jumping: pass k of ceil(log2 G) takes ``up``, each group's
        2**k-th ancestor, to its 2**(k+1)-th, the server being its own
        parent.  The same passes push subtree sizes up: ``count[g]``, the
        groups fewer than 2**k edges below g, gains the counts of the groups
        exactly 2**k below it, one ``bincount`` per pass.  A group whose last
        jump is not the server never reaches it.  Sibling offsets then come
        from a stable sort by parent and a ``cumsum``, and one pull loop over
        the saved jumps sums two weights over each group and its ancestors
        at once: the edge to its parent (giving the depth) and the offset of
        its subtree among its siblings' (giving where it starts in
        postorder).
        """
        num = len(parents)
        up, count, jumps = np.append(parents, num), np.ones(num + 1), []
        for _ in range((num - 1).bit_length()):
            jumps.append(up)
            count += np.bincount(up, count, minlength=num + 1)
            up = up[up]
        if up[:num].min() < num:
            stray = np.flatnonzero(up[:num] < num)[0]
            raise NotATree(f"cycle detected: group {stray} never reaches the server")
        size = count[:num].astype(np.int64)
        # the last group's subtree starts at 0; any other group's starts where
        # its parent's does, plus the sizes of its siblings before it.  Those
        # are summed in one list of every group but the last, sorted by
        # parent, in which the children of the parents before q hold
        # sum(size[:q] - 1) groups in their subtrees
        by_parent = np.argsort(parents[:-1], kind="stable")
        sibling_sizes = size[by_parent]
        first_child = np.cumsum(size) - size - np.arange(num)
        pull = np.zeros((2, num + 1), dtype=np.int64)
        pull[0, : num - 1] = 1  # every group but the last has a group parent
        pull[1, by_parent] = (
            np.cumsum(sibling_sizes) - sibling_sizes - first_child[parents[by_parent]]
        )
        for jump in jumps:
            pull += pull.take(jump, axis=1)
        self.num_groups = num
        self.parents = parents
        self.depth, self.subtree_lo = pull[:, :num]
        self.subtree_hi = self.subtree_lo + size
        self.height = int(self.depth.max())
        self.upward = np.argsort(-self.depth, kind="stable")  # leaves first
        self.postorder = np.empty(num, dtype=np.int64)
        self.postorder[self.subtree_hi - 1] = np.arange(num)
        for name in ("parents", "depth", "upward", "postorder", "subtree_lo", "subtree_hi"):
            getattr(self, name).flags.writeable = False

    @property
    def last_group(self) -> int:
        return self.num_groups - 1


def build_tree(num_groups: int, shape: TreeShape = "chain") -> AggregationTree:
    """Build the aggregation tree for ``num_groups`` groups.

    ``shape`` is "chain" (0 -> 1 -> ... -> last -> server), "star" (every
    other group a direct child of the last group), or an explicit parent
    map which is validated as-is.  A named shape's tree is laid out once per
    (num_groups, shape) and shared, since its layout arrays are read-only;
    an explicit map is laid out anew on every call.
    """
    if num_groups < 1:
        raise NotATree(f"num_groups must be >= 1, got {num_groups}")
    if isinstance(shape, str):
        return _named_tree(num_groups, shape)
    tree = AggregationTree(shape)
    if tree.num_groups != num_groups:
        raise NotATree(
            f"parent map covers {tree.num_groups} groups, expected {num_groups}"
        )
    return tree


@lru_cache(maxsize=32)
def _named_tree(num_groups: int, shape: str) -> AggregationTree:
    if shape == "chain":
        parents = np.arange(1, num_groups + 1)
    elif shape == "star":
        parents = np.full(num_groups, num_groups - 1)
        parents[-1] = num_groups
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    tree = AggregationTree.__new__(AggregationTree)
    tree._lay_out(parents)
    return tree


def count_edges(params: ProtocolParams) -> int:
    """Closed form for the number of distinct links that can ever carry a
    message: N * (K + T + D + 1) / 2.

    Per group, all size*(size-1)/2 internal pairs; one slot-to-slot link
    per user for each tree edge between groups; and one link per last-group
    user to the server.  The total is shape-independent.  The simulator
    counts the links a round without dropouts would use instead
    (``Transcript.links_used`` of all-active masks), and the report keeps
    both.
    """
    return params.n_users * (params.group_size + 1) // 2


@dataclass(frozen=True)
class DelayModel:
    """Per-hop latencies: ``inter`` for any group-to-group or group-to-server
    hop, ``intra`` for the in-group exchange round."""

    inter: float
    intra: float

    def __post_init__(self) -> None:
        if self.inter < 0 or self.intra < 0:
            raise ValueError("delays must be >= 0")


def total_delay(tree: AggregationTree, delays: DelayModel):
    """End-to-end latency: one intra round, then the longest upward path.

    The deepest group sits ``tree.height`` group-to-group edges below the
    server's child, plus the final hop into the server, so the total is
    (height + 1) * inter + intra.  For a chain of G groups that is
    G*inter + intra; for a star (G >= 2) it is 2*inter + intra.
    """
    return (tree.height + 1) * delays.inter + delays.intra
