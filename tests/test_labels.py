"""Unit and property tests for Label (section 3.1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import labels
from repro.core.labels import EMPTY_LABEL, Label, as_label

tag_sets = st.sets(st.integers(min_value=1, max_value=40), max_size=8)


class TestLabelBasics:
    def test_empty_label_is_falsy(self):
        assert not EMPTY_LABEL
        assert len(EMPTY_LABEL) == 0

    def test_construction_from_iterable(self):
        label = Label([3, 1, 2, 3])
        assert len(label) == 3
        assert 1 in label and 2 in label and 3 in label

    def test_labels_are_immutable(self):
        label = Label([1])
        with pytest.raises(AttributeError):
            label.tags = frozenset()
        with pytest.raises(AttributeError):
            label._tags = frozenset()

    def test_equality_and_hash(self):
        assert Label([1, 2]) == Label([2, 1])
        assert hash(Label([1, 2])) == hash(Label([2, 1]))
        assert Label([1]) != Label([2])
        assert Label([1, 2]) == {1, 2}

    def test_labels_have_no_order(self):
        """A set's ``<`` is proper-subset — a partial order a sort
        would silently mis-sort by — so labels refuse ``<`` and ``>``
        (even where one is a subset of the other) and keep ``<=``."""
        low, high, other = Label([1]), Label([1, 2]), Label([3])
        for a, b in ((low, high), (high, low), (low, other)):
            with pytest.raises(TypeError):
                a < b
            with pytest.raises(TypeError):
                a > b
        with pytest.raises(TypeError):
            sorted([other, low, high])
        assert low <= high and low.issubset(high) and not high <= low

    def test_repr_is_sorted_and_stable(self):
        assert repr(Label([3, 1])) == "Label({1, 3})"
        assert repr(EMPTY_LABEL) == "Label({})"

    def test_as_label_coercions(self):
        assert as_label(None) is EMPTY_LABEL
        assert as_label([1, 2]) == Label([1, 2])
        label = Label([5])
        assert as_label(label) is label


class TestLabelAlgebra:
    def test_union_returns_self_when_subset(self):
        label = Label([1, 2])
        assert label.union([1]) is label

    def test_union_combines(self):
        assert Label([1]).union(Label([2])) == Label([1, 2])

    def test_union_returns_the_operand_that_covers_the_other(self):
        low, high = Label([1]), Label([1, 2])
        assert low.union(high) is high
        assert high.union(low) is high
        assert EMPTY_LABEL.union(low) is low
        assert low.union(EMPTY_LABEL) is low
        assert low.union(low) is low

    def test_union_memo_stops_inserting_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(labels, "_UNIONS", {})
        monkeypatch.setattr(labels, "_UNION_CAP", 3)
        pairs = [(Label([100 + i]), Label([200 + i])) for i in range(5)]
        for a, b in pairs:
            assert a.union(b) == Label(a | b)
        assert list(labels._UNIONS) == pairs[:3]
        # Past the cap a pair is still answered, just not remembered;
        # a remembered pair is answered from the memo.
        a, b = pairs[0]
        assert a.union(b) is labels._UNIONS[(a, b)]
        assert pairs[4][0].union(pairs[4][1]) == Label([104, 204])
        assert len(labels._UNIONS) == 3
        # Covering operands never reach the memo.
        assert a.union(a.union(b)) is labels._UNIONS[(a, b)]
        assert len(labels._UNIONS) == 3

    def test_equal_labels_that_are_not_identical_union_equally(
            self, monkeypatch):
        """Past ``_INTERN_CAP`` equal labels are distinct objects: the
        unions (and the memo keyed on them) still agree."""
        monkeypatch.setattr(labels, "_INTERNED", {})
        monkeypatch.setattr(labels, "_INTERN_CAP", 0)
        monkeypatch.setattr(labels, "_UNIONS", {})
        a1, a2 = Label([301, 302]), Label([302, 301])
        b1, b2 = Label([303]), Label([303])
        assert a1 == a2 and a1 is not a2 and b1 is not b2
        assert a1.union(b1) == a2.union(b2) == a1.union(b2) \
            == Label([301, 302, 303])
        assert a1.union(a2) == a1
        assert type(a2.union(b1)) is Label

    def test_union_with_a_plain_iterable(self):
        label = Label([1, 2])
        assert label.union([3, 1]) == Label([1, 2, 3])
        assert type(label.union([3])) is Label
        assert label.union((2,)) is label
        assert EMPTY_LABEL.union({4}) is Label([4])
        assert label.union(frozenset([1, 2, 5])) == Label([1, 2, 5])

    def test_with_tag_idempotent(self):
        label = Label([1])
        assert label.with_tag(1) is label
        assert label.with_tag(2) == Label([1, 2])

    def test_without(self):
        assert Label([1, 2, 3]).without([2]) == Label([1, 3])
        label = Label([1])
        assert label.without([9]) is label

    def test_intersection(self):
        assert Label([1, 2]).intersection([2, 3]) == Label([2])

    def test_issubset_plain(self):
        assert Label([1]).issubset(Label([1, 2]))
        assert not Label([3]).issubset(Label([1, 2]))

    def test_byte_size_four_per_tag(self):
        assert EMPTY_LABEL.byte_size() == 0
        assert Label([1]).byte_size() == 4
        assert Label(range(10)).byte_size() == 40


class TestLabelProperties:
    @given(tag_sets, tag_sets)
    def test_union_is_commutative(self, a, b):
        assert Label(a).union(Label(b)) == Label(b).union(Label(a))

    @given(tag_sets, tag_sets, tag_sets)
    def test_union_is_associative(self, a, b, c):
        left = Label(a).union(Label(b)).union(Label(c))
        right = Label(a).union(Label(b).union(Label(c)))
        assert left == right

    @given(tag_sets)
    def test_union_with_empty_is_identity(self, a):
        assert Label(a).union(EMPTY_LABEL) == Label(a)

    @given(tag_sets, tag_sets)
    def test_without_then_disjoint(self, a, b):
        result = Label(a).without(b)
        assert not (result.tags & frozenset(b))

    @given(tag_sets, tag_sets)
    def test_subset_union_monotone(self, a, b):
        assert Label(a).issubset(Label(a).union(Label(b)))

    @given(tag_sets)
    def test_hash_consistent_with_eq(self, a):
        assert hash(Label(a)) == hash(Label(set(a)))
