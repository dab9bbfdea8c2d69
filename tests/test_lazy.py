import numpy as np
import pytest

from meshsrr.lazy import LazySequence


def squares(n, made=None):
    def make(t):
        if made is not None:
            made.append(t)
        return np.full(3, float(t * t))
    return LazySequence(n, make)


class TestLazySequence:
    def test_length_and_items(self):
        seq = squares(5)
        assert len(seq) == 5
        assert [float(x[0]) for x in seq] == [0.0, 1.0, 4.0, 9.0, 16.0]
        assert not LazySequence(0, lambda t: t)

    def test_every_read_makes_the_item_anew(self):
        made = []
        seq = squares(4, made)
        a, b = seq[2], seq[2]
        assert a is not b and np.array_equal(a, b)
        assert made == [2, 2]

    def test_negative_indices_count_from_the_end(self):
        made = []
        seq = squares(4, made)
        assert seq[-1][0] == 9.0 and seq[-4][0] == 0.0
        assert made == [3, 0]

    @pytest.mark.parametrize("index", [4, 5, -5, -100])
    def test_index_out_of_range_raises_index_error(self, index):
        made = []
        with pytest.raises(IndexError):
            squares(4, made)[index]
        assert made == []

    @pytest.mark.parametrize("index", [1.0, "1", None])
    def test_non_integer_index_is_a_type_error(self, index):
        with pytest.raises(TypeError):
            squares(4)[index]

    def test_numpy_integer_index(self):
        assert squares(4)[np.int64(3)][0] == 9.0

    def test_slices_are_lists(self):
        made = []
        seq = squares(6, made)
        part = seq[1:5:2]
        assert isinstance(part, list)
        assert [float(x[0]) for x in part] == [1.0, 9.0]
        assert [float(x[0]) for x in seq[-2:]] == [16.0, 25.0]
        assert [float(x[0]) for x in seq[::-2]] == [25.0, 9.0, 1.0]
        assert seq[10:] == [] and seq[3:1] == []
        assert made == [1, 3, 4, 5, 5, 3, 1]

    def test_iteration_makes_one_item_per_step(self):
        made = []
        it = iter(squares(3, made))
        next(it)
        assert made == [0]
        assert [float(x[0]) for x in reversed(squares(3))] == [4.0, 1.0, 0.0]

    @pytest.mark.parametrize("error", [IndexError, ValueError, MemoryError])
    def test_errors_from_make_propagate_unchanged(self, error):
        def make(t):
            if t == 2:
                raise error("synthetic")
            return t

        seq = LazySequence(4, make)
        with pytest.raises(error, match="synthetic"):
            seq[2]
        with pytest.raises(error, match="synthetic"):
            seq[1:3]
        # Sequence's default iteration would end quietly at an IndexError.
        with pytest.raises(error, match="synthetic"):
            list(seq)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="length"):
            LazySequence(-1, lambda t: t)
