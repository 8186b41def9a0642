"""Parameter validation, group assignment, trees, edge counts, delays."""

from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rampagg.errors import (
    BadK,
    BadRoot,
    IndivisibleGroups,
    InvalidParams,
    NotATree,
    ThresholdViolation,
)
from rampagg.protocol import Transcript
from rampagg.topology import (
    SERVER,
    AggregationTree,
    DelayModel,
    build_tree,
    count_edges,
    make_params,
    total_delay,
)

from oracles import (
    ancestors_naive,
    children_naive,
    descendants_naive,
    parent_maps,
    potential_links_naive,
)


# ---- parameters ----


def test_make_params_single_group():
    params = make_params(12, 2, 1, 9, model_len=9, entry_bound=8)
    assert params.group_size == 12
    assert params.num_groups == 1
    assert params.seg_len == 1


def test_make_params_two_groups():
    params = make_params(12, 2, 1, 3, model_len=9, entry_bound=8)
    assert params.group_size == 6
    assert params.num_groups == 2
    assert params.seg_len == 3


def test_make_params_seg_len_rounds_up():
    params = make_params(12, 2, 1, 3, model_len=10, entry_bound=8)
    assert params.seg_len == 4


def test_make_params_rejects_indivisible():
    with pytest.raises(IndivisibleGroups):
        make_params(12, 2, 1, 4, model_len=9, entry_bound=8)  # group size 7


def test_make_params_rejects_threshold_violation():
    with pytest.raises(ThresholdViolation):
        make_params(12, 11, 1, 1, model_len=4, entry_bound=8)
    with pytest.raises(ThresholdViolation):
        make_params(4, 4, 0, 1, model_len=4, entry_bound=8)


def test_make_params_rejects_bad_k():
    with pytest.raises(BadK):
        make_params(12, 2, 1, 0, model_len=4, entry_bound=8)
    with pytest.raises(BadK):
        make_params(12, 2, 1, 10, model_len=4, entry_bound=8)  # cap is 9


def test_make_params_rejects_nonsense_counts():
    with pytest.raises(InvalidParams):
        make_params(0, 0, 0, 1, model_len=1, entry_bound=8)
    with pytest.raises(InvalidParams):
        make_params(4, -1, 0, 1, model_len=1, entry_bound=8)
    with pytest.raises(InvalidParams):
        make_params(4, 1, 0, 1, model_len=0, entry_bound=8)
    with pytest.raises(InvalidParams):
        make_params(4, 1, 0, 1, model_len=1, entry_bound=1)


def test_error_hierarchy_is_catchable_as_invalid_params():
    for exc in (ThresholdViolation, BadK, IndivisibleGroups):
        assert issubclass(exc, InvalidParams)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=5),
)
def test_make_params_accept_iff_constraints_hold(groups, t, d, k, length):
    size = k + t + d
    n = groups * size
    if t >= n - d:
        with pytest.raises(ThresholdViolation):
            make_params(n, t, d, k, model_len=length, entry_bound=8)
    else:
        params = make_params(n, t, d, k, model_len=length, entry_bound=8)
        assert params.num_groups == groups


# ---- trees ----


def test_chain_tree():
    tree = build_tree(3, "chain")
    assert tree.parents.tolist() == [1, 2, 3]  # 3 = num_groups: the server
    assert tree.upward.tolist() == [0, 1, 2]
    assert tree.depth.tolist() == [2, 1, 0]


def test_star_tree():
    tree = build_tree(4, "star")
    assert tree.parents.tolist() == [3, 3, 3, 4]
    assert children_naive(tree, 3) == [0, 1, 2]
    assert tree.depth.tolist() == [1, 1, 1, 0]
    assert tree.upward.tolist() == [0, 1, 2, 3]


def test_single_group_tree():
    tree = build_tree(1, "chain")
    assert tree.parents.tolist() == [1]
    assert tree.last_group == 0
    assert build_tree(1, "star").parents.tolist() == [1]


def test_explicit_irregular_tree():
    parent = {0: 4, 1: 4, 2: 4, 3: 5, 4: 6, 5: 6, 6: SERVER}
    tree = build_tree(7, parent)
    assert descendants_naive(tree, 6) == {0, 1, 2, 3, 4, 5}
    assert descendants_naive(tree, 4) == {0, 1, 2}
    assert ancestors_naive(tree, 0) == {4, 6}
    assert children_naive(tree, 4) == [0, 1, 2]
    assert children_naive(tree, 6) == [4, 5]
    assert tree.depth[0] == 2
    assert tree.depth[6] == 0
    order = tree.upward.tolist()
    for g in range(6):
        assert order.index(g) < order.index(parent[g])


def test_deep_chain_layout():
    # 10**5 groups in one chain: every subtree is the chain below its group
    num = 100_000
    tree = build_tree(num, "chain")
    assert tree.depth[0] == 99_999
    assert tree.depth[num - 1] == 0
    assert tree.upward.tolist() == list(range(num))
    assert tree.postorder.tolist() == list(range(num))
    assert not tree.subtree_lo.any()
    assert tree.subtree_hi.tolist() == list(range(1, num + 1))
    assert total_delay(tree, DelayModel(inter=1, intra=0)) == num


def _drawn_parent_map(rng):
    """A valid parent map over up to 300 groups.  Nodes are placed one by
    one under an earlier node, node 0 being the last group: under any of
    them, under the one just placed (a chain), or, after a star of hubs
    under node 0, mostly extending a chain and now and then starting a new
    one under a hub (deep chains hanging off a star).  The nodes are then
    numbered shuffled, or in placement order or its reverse, so parents sit
    below, above or on both sides of their children in index order."""
    num = rng.randint(1, 300)
    shape = rng.choice(["recursive", "chain", "chains off a star"])
    hubs = rng.randint(1, 12)
    under = [None]
    for i in range(1, num):
        if shape == "recursive":
            under.append(rng.randrange(i))
        elif shape == "chain" or (i > hubs and rng.random() < 0.95):
            under.append(i - 1)
        else:
            under.append(0 if i <= hubs else rng.randint(1, hubs))
    rest = list(range(num - 1))
    numbering = rng.choice(["shuffled", "placement", "reversed"])
    if numbering == "shuffled":
        rng.shuffle(rest)
    elif numbering == "reversed":
        rest.reverse()
    label = [num - 1] + rest
    parent = {num - 1: SERVER}
    for i in range(1, num):
        parent[label[i]] = label[under[i]]
    return parent


def test_layout_of_drawn_trees_matches_the_naive_walks():
    rng = Random(20261019)
    for i in range(200):
        parent = _drawn_parent_map(rng)
        tree = AggregationTree(parent)
        num = tree.num_groups
        post = tree.postorder.tolist()
        assert sorted(post) == list(range(num))
        ancestors = [ancestors_naive(tree, g) for g in range(num)]
        below = [set() for _ in range(num)]
        for g, above in enumerate(ancestors):
            for a in above:
                below[a].add(g)
        if i % 4 == 0:  # the oracle walks up from every group on each call
            g = rng.randrange(num)
            assert below[g] == descendants_naive(tree, g)
        for g in range(num):
            lo, hi = tree.subtree_lo[g], tree.subtree_hi[g]
            assert post[hi - 1] == g
            assert set(post[lo : hi - 1]) == below[g]
            assert tree.depth[g] == len(ancestors[g])
            assert tree.parents[g] == (num if parent[g] == SERVER else parent[g])
        assert tree.upward.tolist() == sorted(range(num), key=lambda g: (-tree.depth[g], g))


LAYOUT = ("parents", "depth", "upward", "postorder", "subtree_lo", "subtree_hi")


@pytest.mark.parametrize("shape", ["chain", "star"])
def test_named_shapes_equal_their_explicit_maps(shape):
    for num in [*range(1, 41), 5000]:
        if shape == "chain":
            parent = {g: g + 1 for g in range(num - 1)}
        else:
            parent = {g: num - 1 for g in range(num - 1)}
        parent[num - 1] = SERVER
        named, explicit = build_tree(num, shape), AggregationTree(parent)
        assert named.num_groups == explicit.num_groups == num
        for name in LAYOUT:
            assert np.array_equal(getattr(named, name), getattr(explicit, name)), name


def test_layout_arrays_are_read_only():
    # one tree serves every run of a privacy case: a write must not go through
    for tree in (build_tree(3, "chain"), AggregationTree({0: 2, 1: 2, 2: SERVER})):
        for name in LAYOUT:
            array = getattr(tree, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                array += 1


def test_named_trees_are_shared_and_explicit_maps_are_not():
    assert build_tree(6, "chain") is build_tree(np.int64(6), "chain")
    assert build_tree(6, "star") is build_tree(6, "star")
    assert build_tree(6, "star") is not build_tree(6, "chain")
    assert build_tree(6, "chain") is not build_tree(7, "chain")
    parent = {0: 1, 1: SERVER}
    assert build_tree(2, parent) is not build_tree(2, parent)
    # a map still goes through its checks on every call
    for _ in range(2):
        with pytest.raises(BadRoot):
            build_tree(2, {0: SERVER, 1: SERVER})


def test_depths_of_an_irregular_tree_listed_in_any_order():
    # parents listed before and after their children: the depths must not
    # depend on the order the groups are numbered in
    parent = {0: 6, 1: 0, 2: 1, 3: 6, 4: 3, 5: 2, 6: SERVER}
    tree = AggregationTree(parent)
    assert tree.depth.tolist() == [1, 2, 3, 1, 2, 4, 0]
    assert tree.depth.tolist() == [len(ancestors_naive(tree, g)) for g in range(7)]


@given(parent_maps(max_groups=9))
def test_layout_arrays_match_the_parent_map(parent):
    tree = AggregationTree(parent)
    num = tree.num_groups
    post = tree.postorder.tolist()
    assert sorted(post) == list(range(num))
    for g in range(num):
        # g closes its subtree's range, which holds exactly its descendants
        lo, hi = tree.subtree_lo[g], tree.subtree_hi[g]
        assert post[hi - 1] == g
        assert set(post[lo : hi - 1]) == descendants_naive(tree, g)
        assert tree.depth[g] == len(ancestors_naive(tree, g))
        assert tree.parents[g] == (num if parent[g] == SERVER else parent[g])
    assert tree.upward.tolist() == sorted(range(num), key=lambda g: (-tree.depth[g], g))
    # total_delay reads the height: a plain int, no reduction per call
    assert type(tree.height) is int
    assert tree.height == max(len(ancestors_naive(tree, g)) for g in range(num))


def test_tree_rejects_wrong_root():
    with pytest.raises(BadRoot):
        AggregationTree({0: SERVER, 1: 0})  # server child must be the last group
    with pytest.raises(BadRoot):
        AggregationTree({0: SERVER, 1: SERVER})  # two children of the server
    with pytest.raises(BadRoot):
        AggregationTree({0: 1, 1: 0})  # nobody under the server


def test_tree_rejects_cycles_and_orphans():
    with pytest.raises(NotATree):
        AggregationTree({0: 1, 1: 0, 2: SERVER})  # 0-1 cycle never reaches server
    with pytest.raises(NotATree):
        AggregationTree({0: 3, 1: 2, 2: 1, 3: SERVER})  # cycle after a finished walk
    with pytest.raises(NotATree):
        AggregationTree({0: 0, 1: SERVER})  # self parent
    with pytest.raises(NotATree):
        AggregationTree({0: 5, 1: SERVER})  # unknown parent
    with pytest.raises(NotATree):
        AggregationTree({1: 2, 2: SERVER})  # group 0 missing
    with pytest.raises(NotATree):
        AggregationTree({})
    with pytest.raises(NotATree):
        AggregationTree({0: True, 1: SERVER})  # a bool is not a group number
    with pytest.raises(NotATree):
        build_tree(3, {0: 1, 1: SERVER})  # the map must cover all 3 groups


def test_cycle_names_the_lowest_group_that_never_reaches_the_server():
    # groups 0 and 2..19 chain up to the last group; 30 -> 31 -> 32 -> 30 is
    # a cycle with a tail 1 -> 20 -> 21 -> ... -> 29 -> 30 hanging below it
    parent = {g: g + 1 for g in range(2, 19)}
    parent.update({0: 2, 19: 39, 39: SERVER, 1: 20})
    parent.update({g: g + 1 for g in range(20, 32)})
    parent.update({32: 30})
    parent.update({g: 39 for g in range(33, 39)})
    with pytest.raises(NotATree, match="^cycle detected: group 1 never reaches the server$"):
        AggregationTree(parent)
    # two disjoint cycles, 5 <-> 6 and 2 -> 3 -> 4 -> 2, beside a valid chain
    parent = {0: 1, 1: 7, 2: 3, 3: 4, 4: 2, 5: 6, 6: 5, 7: SERVER}
    with pytest.raises(NotATree, match="^cycle detected: group 2 never reaches the server$"):
        AggregationTree(parent)


def test_tree_rejects_bad_shape_name():
    with pytest.raises(ValueError):
        build_tree(3, "ring")


# ---- edge counting ----


def test_count_edges_worked_examples():
    assert count_edges(make_params(12, 2, 1, 9, 9, 8)) == 78
    assert count_edges(make_params(12, 2, 1, 3, 9, 8)) == 42


def test_count_edges_single_group_is_complete_graph_plus_uplinks():
    # one group of N: N(N-1)/2 pairs + N server links = N(N+1)/2
    params = make_params(8, 2, 1, 5, 4, 8)
    assert count_edges(params) == 8 * 9 // 2


def _links_without_dropouts(params, tree):
    """How many links a round nobody drops out of uses: every potential link."""
    n = params.n_users
    everyone = np.ones(n, dtype=bool)
    return Transcript(params, tree, everyone, np.zeros(n, dtype=np.int8)).links_used


@pytest.mark.parametrize("shape", ["chain", "star"])
@pytest.mark.parametrize(
    "n,t,d,k", [(12, 2, 1, 3), (12, 2, 1, 9), (24, 3, 1, 4), (24, 1, 0, 2)]
)
def test_potential_links_match_closed_form(shape, n, t, d, k):
    params = make_params(n, t, d, k, model_len=4, entry_bound=8)
    tree = build_tree(params.num_groups, shape)
    links = _links_without_dropouts(params, tree)
    assert links == count_edges(params) == len(potential_links_naive(params, tree))


def test_potential_links_explicit_contents():
    params = make_params(4, 1, 0, 1, model_len=2, entry_bound=8)  # 2 groups of 2
    tree = build_tree(2, "chain")
    # the round counts its links; the oracle lists them
    assert _links_without_dropouts(params, tree) == 6
    assert potential_links_naive(params, tree) == {
        frozenset(link)
        for link in [
            (0, 1),
            (0, 2),  # slot 0 uplink
            (1, 3),  # slot 1 uplink
            (2, 3),
            (2, "server"),
            (3, "server"),
        ]
    }


# ---- delays ----


def test_delay_star_vs_chain():
    delays = DelayModel(inter=1.0, intra=3.0)
    assert total_delay(build_tree(7, "star"), delays) == 5.0
    assert total_delay(build_tree(7, "chain"), delays) == 10.0


def test_delay_single_group():
    assert total_delay(build_tree(1, "chain"), DelayModel(1, 3)) == 4


def test_delay_irregular_tree_uses_deepest_path():
    parent = {0: 4, 1: 4, 2: 4, 3: 5, 4: 6, 5: 6, 6: SERVER}
    tree = build_tree(7, parent)
    assert total_delay(tree, DelayModel(2, 1)) == (2 + 1) * 2 + 1


def test_delay_rejects_negative():
    with pytest.raises(ValueError):
        DelayModel(-1, 0)
