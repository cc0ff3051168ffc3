"""Unit tests for the activity vocabulary."""

import pytest

from repro.model.vocabulary import Vocabulary


class TestBasicMapping:
    def test_add_and_lookup(self):
        v = Vocabulary()
        i = v.add("coffee")
        assert v.id_of("coffee") == i
        assert v.name_of(i) == "coffee"

    def test_add_is_idempotent(self):
        v = Vocabulary()
        assert v.add("x") == v.add("x")
        assert len(v) == 1

    def test_ids_are_dense(self):
        v = Vocabulary(["a", "b", "c"])
        assert [v.id_of(n) for n in "abc"] == [0, 1, 2]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().id_of("nope")

    def test_contains_len_iter(self):
        v = Vocabulary(["a", "b"])
        assert "a" in v
        assert "z" not in v
        assert list(v) == ["a", "b"]
        assert v.names() == ("a", "b")


class TestFrequencyOrdering:
    def test_ids_descend_by_frequency(self):
        v = Vocabulary.from_frequencies({"rare": 1, "common": 100, "mid": 10})
        assert v.id_of("common") == 0
        assert v.id_of("mid") == 1
        assert v.id_of("rare") == 2

    def test_ties_break_alphabetically(self):
        v = Vocabulary.from_frequencies({"b": 5, "a": 5, "c": 5})
        assert [v.name_of(i) for i in range(3)] == ["a", "b", "c"]


class TestEncodeDecode:
    def test_encode_roundtrip(self):
        v = Vocabulary(["a", "b", "c"])
        ids = v.encode(["a", "c"])
        assert ids == frozenset({0, 2})
        assert v.decode(ids) == frozenset({"a", "c"})

    def test_encode_unknown_raises(self):
        v = Vocabulary(["a"])
        with pytest.raises(KeyError):
            v.encode(["a", "b"])

    @pytest.mark.parametrize("subset", [(), ("b",), ("a", "c"), ("a", "b", "c", "d")])
    def test_decode_inverts_encode(self, subset):
        v = Vocabulary(["a", "b", "c", "d"])
        assert v.decode(v.encode(subset)) == frozenset(subset)

    def test_add_after_construction_extends_dense_ids(self):
        v = Vocabulary(["a", "b"])
        assert v.add("c") == 2
        assert v.encode(["c", "a"]) == frozenset({0, 2})
