"""Grouping of users and the aggregation tree above the groups.

Users 0..N-1 are packed into consecutive groups of size K+T+D: user n sits
in group n // group_size at slot n % group_size.  Groups form a tree whose
root is the server; the server has exactly one child, the last group, so a
single group's messages ever touch the server.  Messages between adjacent
groups travel slot-to-slot: slot t of a group talks only to slot t of its
parent.
"""

from dataclasses import dataclass
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
    """

    def __init__(self, parent: Mapping[int, Union[int, str]]):
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
        children: dict[int, list[int]] = {g: [] for g in groups}  # ascending
        for g in groups:
            par = parent[g]
            if par == SERVER:
                continue
            if type(par) is not int or par not in children:
                raise NotATree(f"group {g} has unknown parent {par!r}")
            if par == g:
                raise NotATree(f"group {g} is its own parent")
            children[par].append(g)
        # a walk down from the server's child, children last-first, gives the
        # depths and a preorder whose reverse is a postorder, where every
        # subtree is one range; a group never reached is on or below a cycle
        depth, preorder, stack = [0] * num, [], [num - 1]
        while stack:
            g = stack.pop()
            preorder.append(g)
            for c in children[g]:
                depth[c] = depth[g] + 1
            stack.extend(children[g])  # popped last-first
        if len(preorder) < num:
            stray = min(set(groups).difference(preorder))
            raise NotATree(f"cycle detected: group {stray} never reaches the server")
        postorder, lo, hi = preorder[::-1], [0] * num, [0] * num
        for i, g in enumerate(postorder):
            lo[g], hi[g] = lo[children[g][0]] if children[g] else i, i + 1
        self.num_groups = num
        # the layout, read by the relay and the transcript: group g's subtree
        # is postorder[subtree_lo[g] : subtree_hi[g]], with g last
        self.depth = np.array(depth)
        self.upward = np.argsort(-self.depth, kind="stable")  # leaves first
        self.parents = np.array([parent[g] for g in groups[:-1]] + [num])  # num: server
        self.postorder = np.array(postorder)
        self.subtree_lo, self.subtree_hi = np.array([lo, hi])

    @property
    def last_group(self) -> int:
        return self.num_groups - 1


def build_tree(num_groups: int, shape: TreeShape = "chain") -> AggregationTree:
    """Build the aggregation tree for ``num_groups`` groups.

    ``shape`` is "chain" (0 -> 1 -> ... -> last -> server), "star" (every
    other group a direct child of the last group), or an explicit parent
    map which is validated as-is.
    """
    if num_groups < 1:
        raise NotATree(f"num_groups must be >= 1, got {num_groups}")
    if isinstance(shape, str):
        if shape == "chain":
            parent: dict[int, Union[int, str]] = {
                g: g + 1 for g in range(num_groups - 1)
            }
        elif shape == "star":
            parent = {g: num_groups - 1 for g in range(num_groups - 1)}
        else:
            raise ValueError(f"unknown tree shape {shape!r}")
        parent[num_groups - 1] = SERVER
        return AggregationTree(parent)
    tree = AggregationTree(shape)
    if tree.num_groups != num_groups:
        raise NotATree(
            f"parent map covers {tree.num_groups} groups, expected {num_groups}"
        )
    return tree


def count_edges(params: ProtocolParams) -> int:
    """Closed form for the number of distinct links that can ever carry a
    message: N * (K + T + D + 1) / 2.

    Per group, all size*(size-1)/2 internal pairs; one slot-to-slot link
    per user for each tree edge between groups; and one link per last-group
    user to the server.  The total is shape-independent.  The simulator
    enumerates the links of a round without dropouts instead, and the
    report keeps both.
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

    The deepest group sits ``depth`` group-to-group edges below the
    server's child, plus the final hop into the server, so the total is
    (max depth + 1) * inter + intra.  For a chain of G groups that is
    G*inter + intra; for a star (G >= 2) it is 2*inter + intra.
    """
    deepest = int(tree.depth.max())
    return (deepest + 1) * delays.inter + delays.intra
