"""Tests for the consistent-hash ring."""

import collections

from repro.cluster.hashing import ConsistentHashRing

KEYS = [f"q(X{i}) :- rel{i % 7}(X{i}, Y)" for i in range(5000)]


def owner(ring, key):
    """The shard *ring* routes *key* to: its first candidate."""
    return next(ring.candidates(key))


class TestPlacement:
    def test_deterministic_across_instances(self):
        # Two independently built rings agree on every placement —
        # the property Python's salted builtin hash() cannot give,
        # and the reason a router and offline tooling can agree.
        a = ConsistentHashRing(range(4))
        b = ConsistentHashRing(range(4))
        assert [owner(a, k) for k in KEYS] == [owner(b, k) for k in KEYS]

    def test_known_placements_are_stable(self):
        # Pinned values: these may only change if the hash scheme
        # changes, which is a routing-compatibility break.
        ring = ConsistentHashRing(range(4))
        assert owner(ring, "q(X) :- rel0(X, Y)") == 2
        assert owner(ring, "q(X) :- rel1(X, Y)") == 3

    def test_insertion_order_is_irrelevant(self):
        a = ConsistentHashRing([0, 1, 2, 3])
        b = ConsistentHashRing([3, 1, 0, 2])
        assert [owner(a, k) for k in KEYS] == [owner(b, k) for k in KEYS]

    def test_balance_is_roughly_even(self):
        ring = ConsistentHashRing(range(4))
        counts = collections.Counter(owner(ring, k) for k in KEYS)
        assert set(counts) == {0, 1, 2, 3}
        ideal = len(KEYS) / 4
        for shard, count in counts.items():
            assert 0.5 * ideal < count < 1.5 * ideal, (shard, counts)


class TestOneMoreShard:
    """A ring of five shards against a ring of four: ~1/5 of keys move."""

    @staticmethod
    def moves():
        four, five = ConsistentHashRing(range(4)), ConsistentHashRing(range(5))
        return {
            key: owner(five, key)
            for key in KEYS
            if owner(five, key) != owner(four, key)
        }

    def test_about_one_nth_of_the_keys_move(self):
        # Ideal is 1/5 of the key space; allow wide-but-damning bounds
        # (modulo hashing would move ~4/5).
        assert 0.10 < len(self.moves()) / len(KEYS) < 0.35

    def test_moved_keys_all_land_on_the_new_shard(self):
        assert set(self.moves().values()) == {4}


class TestCandidates:
    def test_candidates_cover_every_shard_once(self):
        ring = ConsistentHashRing(range(5))
        for key in KEYS[:50]:
            order = list(ring.candidates(key))
            assert sorted(order) == [0, 1, 2, 3, 4]

    def test_failover_order_differs_between_keys(self):
        # The whole point of ring-order failover: an unhealthy shard's
        # keys spill over *spread across* the others, not onto one
        # unlucky neighbour.
        ring = ConsistentHashRing(range(4))
        second_choices = collections.Counter(
            list(ring.candidates(key))[1] for key in KEYS[:1000]
        )
        assert len(second_choices) >= 3
