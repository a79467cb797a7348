"""Draft tree construction, budget/reserve rules, the node view over the
hung chains, and the tree's chain index."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from ngramspec.cache_table import CacheTableConfig, LruCacheTable
from ngramspec.decode_loop import accept
from ngramspec.draft_tree import DraftConfig, DraftNode, DraftTree, build_draft_tree
from ngramspec.frozen_table import build_frozen, count_ngrams

from corpus import flat
from oracles import (
    RefLruTable,
    brute_build_tree,
    brute_chain_index,
    brute_child_index,
    brute_max_depth,
    linear_accept,
    naive_frozen_map,
    snapshot,
)

# Token ids for the worked two-word-leader example:
# "at dawn the fox" with followers "ran fast" / "hid deep" / "sat still",
# and "sat still" -> "you could".
AT, DAWN, THE, FOX = 10, 11, 0, 1
RAN, FAST, HID, DEEP, SAT, STILL, YOU, COULD = 2, 3, 4, 5, 6, 7, 8, 9


def fox_table() -> LruCacheTable:
    table = LruCacheTable(CacheTableConfig(ll=2, fl=2, lc=16, fc=8))
    # Insert in reverse so the query returns ran/hid/sat most-recent-first.
    table.insert((THE, FOX), (SAT, STILL))
    table.insert((THE, FOX), (HID, DEEP))
    table.insert((THE, FOX), (RAN, FAST))
    table.insert((SAT, STILL), (YOU, COULD))
    return table


def as_tuples(tree: DraftTree) -> list[tuple]:
    return [(n.token, n.parent, n.depth) for n in tree.nodes]


class TestBuild:
    def test_empty_tables_give_empty_tree(self):
        tcfg = CacheTableConfig(1, 3, 4, 4)
        tree = build_draft_tree([1, 2, 3], 1, LruCacheTable(tcfg), None, DraftConfig(8, 2))
        assert list(tree.nodes) == []
        assert tree.pending == (3,)

    def test_context_shorter_than_leader_gives_empty_tree(self):
        tcfg = CacheTableConfig(3, 1, 4, 4)
        table = LruCacheTable(tcfg)
        table.insert((1, 2, 3), (4,))
        tree = build_draft_tree([1, 2], 0, table, None, DraftConfig(8, 2))
        assert list(tree.nodes) == []

    def test_two_word_leader_example_tree(self):
        table = fox_table()
        tree = build_draft_tree(
            [AT, DAWN, THE, FOX], 0, table, None, DraftConfig(tdl=16, crt=4)
        )
        assert as_tuples(tree) == [
            (RAN, None, 1),
            (FAST, 0, 2),
            (HID, None, 1),
            (DEEP, 2, 2),
            (SAT, None, 1),
            (STILL, 4, 2),
            (YOU, 5, 3),
            (COULD, 6, 4),
        ]
        assert tree.max_depth == 4

    def test_depth_one_reserve_budget(self):
        # tdl - crt - pending = 4 with fl = 2: exactly two chains at depth 1,
        # the rest of the budget goes to deeper levels.
        tcfg = CacheTableConfig(ll=1, fl=2, lc=32, fc=8)
        table = LruCacheTable(tcfg)
        for first, second in [(9, 10), (7, 8), (5, 6), (3, 4), (1, 2)]:
            table.insert((0,), (first, second))  # query order: (1,2) first
        table.insert((2,), (20, 21))
        table.insert((4,), (40, 41))
        tree = build_draft_tree([0], 0, table, None, DraftConfig(tdl=10, crt=6))
        roots = [n for n in tree.nodes if n.parent is None]
        level_one = [n for n in tree.nodes if n.depth <= tcfg.fl]
        assert len(roots) == 2
        assert len(level_one) == 4
        assert [n.token for n in level_one] == [1, 2, 3, 4]
        deeper = [n.token for n in tree.nodes if n.depth > tcfg.fl]
        assert deeper == [20, 21, 40, 41]

    def test_whole_chains_only(self):
        # Budget of 3 cannot hold a second 2-token chain.
        tcfg = CacheTableConfig(ll=1, fl=2, lc=8, fc=8)
        table = LruCacheTable(tcfg)
        table.insert((0,), (3, 4))
        table.insert((0,), (1, 2))
        tree = build_draft_tree([0], 0, table, None, DraftConfig(tdl=3, crt=0))
        assert [n.token for n in tree.nodes] == [1, 2]

    def test_frozen_phase_extends_leaves(self):
        tcfg = CacheTableConfig(ll=1, fl=1, lc=8, fc=4)
        dynamic = LruCacheTable(tcfg)
        dynamic.insert((0,), (1,))
        corpus = [[1, 2, 2, 2]]
        frozen = build_frozen(*count_ngrams(*flat(corpus), tcfg), tcfg)
        tree = build_draft_tree([0], 0, dynamic, frozen, DraftConfig(tdl=4, crt=1))
        # Dynamic adds 1; frozen then grows the chain until tdl is exhausted.
        assert [n.token for n in tree.nodes] == [1, 2, 2, 2]
        assert [n.parent for n in tree.nodes] == [None, 0, 1, 2]

    def test_frozen_phase_takes_the_last_chain_slot(self):
        # After the dynamic chain, exactly one more 2-token chain fits in tdl=4;
        # the frozen phase must still run and hang it below the childless end.
        tcfg = CacheTableConfig(ll=1, fl=2, lc=8, fc=4)
        dynamic, ref = LruCacheTable(tcfg), RefLruTable(1, 2, 8, 4)
        dynamic.insert((0,), (1, 2))
        ref.insert((0,), (1, 2))
        docs = [[2, 3, 4]]
        frozen = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
        tree = build_draft_tree([0], 0, dynamic, frozen, DraftConfig(tdl=4, crt=0))
        expected = brute_build_tree([0], 0, ref, naive_frozen_map(docs, 1, 2, 8, 4), 4, 0, 1, 2)
        assert as_tuples(tree) == [(n["token"], n["parent"], n["depth"]) for n in expected]
        assert [n.token for n in tree.nodes] == [1, 2, 3, 4]

    def test_pending_counts_against_budget(self):
        tcfg = CacheTableConfig(ll=1, fl=2, lc=8, fc=8)
        table = LruCacheTable(tcfg)
        table.insert((5,), (1, 2))
        context = [9, 9, 9, 5]
        # pending=3 leaves no room: 3 + 2 > tdl=4.
        tree = build_draft_tree(context, 3, table, None, DraftConfig(tdl=4, crt=0))
        assert list(tree.nodes) == []
        assert tree.pending == (9, 9, 5)

    def test_mismatched_table_shape_rejected(self):
        tcfg = CacheTableConfig(ll=1, fl=2, lc=8, fc=8)
        dynamic = LruCacheTable(CacheTableConfig(ll=1, fl=3, lc=8, fc=8))
        frozen = build_frozen(*count_ngrams(*flat([[1, 2, 3, 1, 2]]), tcfg), tcfg)
        with pytest.raises(ValueError):
            build_draft_tree([1, 2], 0, dynamic, frozen, DraftConfig(4, 0))

    def test_no_table_rejected(self):
        with pytest.raises(ValueError):
            build_draft_tree([1, 2], 0, None, None, DraftConfig(4, 0))

    @pytest.mark.parametrize("pending_len", [-1, 3])
    def test_pending_outside_the_context_rejected(self, pending_len):
        dynamic = LruCacheTable(CacheTableConfig(ll=1, fl=2, lc=8, fc=8))
        with pytest.raises(ValueError, match="pending_len"):
            build_draft_tree([1, 2], pending_len, dynamic, None, DraftConfig(4, 0))


class TestDraftConfig:
    @pytest.mark.parametrize(
        "tdl, crt", [(True, 0), (4, False), (True, False), (0, 0), (4, -1), (4, 4), (4.0, 1)]
    )
    def test_invalid_budget_rejected(self, tdl, crt):
        with pytest.raises(ValueError):
            DraftConfig(tdl, crt)


def random_setup(rng: random.Random):
    ll = rng.randint(1, 3)  # with fl < ll, a leader can span ancestor chains and the anchor
    fl = rng.randint(1, 3)
    lc = rng.randint(2, 8)
    fc = rng.randint(1, 4)
    tdl = rng.randint(max(2, fl), 24)
    crt = rng.randint(0, tdl - 1)
    pool = rng.randint(2, 6)
    real = LruCacheTable(CacheTableConfig(ll, fl, lc, fc))
    ref = RefLruTable(ll, fl, lc, fc)
    for _ in range(rng.randint(0, 60)):
        leader = tuple(rng.randrange(pool) for _ in range(ll))
        follower = tuple(rng.randrange(pool) for _ in range(fl))
        real.insert(leader, follower)
        ref.insert(leader, follower)
    frozen = None
    frozen_map = None
    if rng.random() < 0.6:
        docs = [
            [rng.randrange(pool) for _ in range(rng.randint(0, 20))]
            for _ in range(rng.randint(1, 4))
        ]
        tcfg = CacheTableConfig(ll, fl, lc, fc)
        frozen = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
        frozen_map = naive_frozen_map(docs, ll, fl, lc, fc)
    context = [rng.randrange(pool) for _ in range(rng.randint(0, 12))]
    # Decode-loop-reachable states keep the pending chain within the budget.
    pending = rng.randint(0, min(3, len(context), tdl))
    return ll, fl, lc, fc, tdl, crt, real, ref, frozen, frozen_map, context, pending


@pytest.mark.parametrize("seed", range(40))
def test_build_matches_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(20):
        ll, fl, lc, fc, tdl, crt, real, ref, frozen, frozen_map, context, pending = random_setup(rng)
        tree = build_draft_tree(context, pending, real, frozen, DraftConfig(tdl, crt))
        expected = brute_build_tree(context, pending, ref, frozen_map, tdl, crt, ll, fl)
        want = [(n["token"], n["parent"], n["depth"]) for n in expected]
        assert as_tuples(tree) == want
        # The node view: its length and iteration agree.
        assert len(tree.nodes) == len(want)
        assert [tuple(node) for node in tree.nodes] == want
        # No two siblings share a token, so the walk can reach every node.
        assert len(brute_child_index(as_tuples(tree))) == len(tree.nodes)
        # Query side effects on the dynamic table must also agree.
        assert snapshot(real) == ref.state()
        if frozen is not None:  # frozen-only wiring: no dynamic table at all
            tree = build_draft_tree(context, pending, None, frozen, DraftConfig(tdl, crt))
            expected = brute_build_tree(context, pending, None, frozen_map, tdl, crt, ll, fl)
            assert as_tuples(tree) == [(n["token"], n["parent"], n["depth"]) for n in expected]


@pytest.mark.parametrize("seed", range(10))
def test_build_leaves_every_follower_list_unchanged(seed):
    # ``query`` hands the builder the table's own lists, so a build that
    # mutated one would corrupt the table; only leader order may change.
    rng = random.Random(4000 + seed)
    drafted = 0
    for _ in range(20):
        ll, fl, lc, fc, tdl, crt, real, _, frozen, _, context, pending = random_setup(rng)
        for wiring in (None, frozen) if frozen is not None else (None,):  # dynamic-only, dual
            before = dict(snapshot(real))
            tree = build_draft_tree(context, pending, real, wiring, DraftConfig(tdl, crt))
            assert dict(snapshot(real)) == before
            drafted += wiring is None and len(tree.nodes) > 0
    assert drafted >= 5


def clone_table(table: LruCacheTable, out=None):
    """``table``'s state inserted into ``out`` (by default a new table of its
    shape), least recent first, so that every recency is kept."""
    out = LruCacheTable(table.config) if out is None else out
    for leader, followers in snapshot(table):
        for follower in reversed(followers):
            out.insert(leader, follower)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_build_is_deterministic(seed):
    rng = random.Random(1000 + seed)
    ll, fl, lc, fc, tdl, crt, real, _, frozen, _, context, pending = random_setup(rng)
    twin = clone_table(real)
    first = build_draft_tree(context, pending, real, frozen, DraftConfig(tdl, crt))
    second = build_draft_tree(context, pending, twin, frozen, DraftConfig(tdl, crt))
    assert as_tuples(first) == as_tuples(second)
    assert snapshot(real) == snapshot(twin)


@pytest.mark.parametrize("seed", range(30))
def test_budget_and_reserve_invariants(seed):
    rng = random.Random(2000 + seed)
    for _ in range(30):
        ll, fl, lc, fc, tdl, crt, real, _, frozen, _, context, pending = random_setup(rng)
        tree = build_draft_tree(context, pending, real, frozen, DraftConfig(tdl, crt))
        assert pending + len(tree.nodes) <= tdl
        level_one = sum(1 for n in tree.nodes if n.depth <= fl)
        assert level_one <= max(0, tdl - crt - pending)


class PathVerifier:
    """Greedy oracle seeded by ``salt`` and the path past the first
    ``committed_len`` tokens, so the same prefix always gives the same token.
    Four times in five it picks a token that continues that path somewhere
    in ``nodes`` (any branch, not only the earliest); otherwise, or when no
    branch continues it, a token from ``range(6)`` (every ``random_setup``
    token)."""

    eos_token = None

    def __init__(self, committed_len: int, salt: int, nodes) -> None:
        self.committed_len = committed_len
        self.salt = salt
        self.paths: list[tuple] = []
        for token, parent, _depth in nodes:
            self.paths.append((self.paths[parent] if parent is not None else ()) + (token,))

    def greedy_next(self, prefix) -> int:
        path = tuple(prefix[self.committed_len :])
        rng = random.Random(f"{self.salt}:{path}")
        options = sorted({p[-1] for p in self.paths if p[:-1] == path})
        if options and rng.random() < 0.8:
            return rng.choice(options)
        return rng.randrange(6)


def sparse_copy(table: LruCacheTable) -> LruCacheTable:
    """The table with only each leader's most recent follower, so the dynamic
    phase leaves budget and childless chain ends for the frozen phase."""
    out = LruCacheTable(table.config)
    for leader, followers in snapshot(table):
        out.insert(leader, followers[0])
    return out


def test_index_and_accept_match_brute_force():
    phase_two = deep_walks = 0
    for seed in range(40):
        rng = random.Random(3000 + seed)
        for _ in range(20):
            ll, fl, lc, fc, tdl, crt, real, _, frozen, frozen_map, context, pending = (
                random_setup(rng)
            )
            dcfg = DraftConfig(tdl, crt)
            for table in [real] if frozen is None else [real, sparse_copy(real)]:
                ref = clone_table(table, RefLruTable(ll, fl, lc, fc))
                bare = build_draft_tree(context, pending, clone_table(table), None, dcfg)
                tree = build_draft_tree(context, pending, table, frozen, dcfg)
                nodes = as_tuples(tree)
                phase_two += len(nodes) > len(bare.nodes)  # the frozen phase hung chains
                brute = brute_build_tree(context, pending, ref, frozen_map, tdl, crt, ll, fl)
                flat = {
                    (parent, first): (hit, tree.nodes.chains[hit][2])
                    for parent, kids in tree.child.items()
                    for first, hit in kids.items()
                }
                # The brute index names nodes; chain c holds nodes c*fl .. c*fl+fl-1.
                by_chain = {
                    (None if parent is None else parent // fl, first): (end // fl, tokens)
                    for (parent, first), (end, tokens) in brute_chain_index(brute, fl).items()
                }
                assert flat == by_chain
                assert all(tree.child.values())  # a map is stored only for a pop that hung
                assert tree.max_depth == brute_max_depth(nodes)

                committed = list(context)
                verifier = PathVerifier(len(context), rng.randrange(10**9), nodes)
                got = accept(tree, committed, verifier, len(nodes) + 1)
                indices, bonus = linear_accept(nodes, context, verifier.greedy_next)
                assert got == len(indices)
                # The walk leaves the path and the bonus appended.
                assert committed == context + [nodes[i][0] for i in indices] + [bonus]
                deep_walks += got >= 2
    assert phase_two >= 100
    assert deep_walks >= 100


def test_a_tree_given_only_nodes_offers_the_walk_nothing():
    nodes = [DraftNode(5, None, 1), DraftNode(6, 0, 2)]
    tree = DraftTree(pending=(1,), nodes=nodes)
    assert (tree.child, tree.max_depth) == ({}, 0)
    committed = [1]
    walk = SimpleNamespace(eos_token=None, greedy_next=lambda prefix: [5, 6, 9][len(prefix) - 1])
    assert accept(tree, committed, walk, 3) == 0
    assert committed == [1, 5]  # the bonus token alone
