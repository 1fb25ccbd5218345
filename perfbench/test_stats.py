"""Tests of the benchmark's own arithmetic: percentile selection, trimmed
means and span self time. Run with ``python3 -m pytest perfbench``."""

import pytest

from stats import nearest_ancestor, percentile, samples_beyond, self_times, trimmed_mean


# -- percentile selection ------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100


def test_percentile_ignores_input_order_and_returns_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile([7.5], 90) == 7.5


def test_p90_of_ten_samples_is_the_ninth():
    values = [float(v) for v in range(10)]
    assert percentile(values, 90) == 8.0
    assert samples_beyond(10, 90) == 1


def test_p90_keeps_ten_samples_beyond_it_from_one_hundred():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(0, 90) == 0


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_ranks_outside_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- trimmed means -------------------------------------------------------------

def test_trimmed_mean_drops_a_tenth_from_each_end():
    values = [1.0] * 16 + [1000.0, 900.0, -1000.0, -900.0]  # 20 samples: two dropped at each end
    assert trimmed_mean(values) == 1.0
    assert trimmed_mean([1.0] * 8 + [50.0, -50.0]) == 1.0  # ten samples: one at each end


def test_trimmed_mean_of_a_short_series_drops_one_at_each_end():
    assert trimmed_mean([3.0, 1.0, 8.0]) == 3.0
    assert trimmed_mean([400.0, 420.0, 440.0, 900.0]) == 430.0


def test_trimmed_mean_of_one_or_two_samples_is_the_plain_mean():
    assert trimmed_mean([2.5]) == 2.5
    assert trimmed_mean([2.0, 4.0]) == 3.0


def test_trimmed_mean_rejects_no_samples():
    with pytest.raises(ValueError):
        trimmed_mean([])


# -- span self time -------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # 0: [0, 100] has children 1: [10, 40] and 2: [50, 70]; 1 has child 3: [20, 30]
    parents = [-1, 0, 0, 1]
    starts = [0, 10, 50, 20]
    ends = [100, 40, 70, 30]
    assert self_times(parents, starts, ends) == [100 - 30 - 20, 30 - 10, 20, 10]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([-1], [5], [12]) == [7]


def test_overlapping_children_are_not_counted_twice():
    parents = [-1, 0, 0]
    starts = [0, 10, 20]
    ends = [100, 30, 50]      # children cover [10, 50] together
    assert self_times(parents, starts, ends)[0] == 60


def test_children_are_clipped_to_the_parent():
    parents = [-1, 0]
    starts = [10, 0]
    ends = [20, 15]           # child overhangs the parent's start
    assert self_times(parents, starts, ends)[0] == 5


def test_self_times_never_go_negative_and_sum_to_root_duration():
    parents = [-1, 0, 1, 1, 0]
    starts = [0, 1, 2, 5, 20]
    ends = [30, 10, 4, 9, 29]
    selfs = self_times(parents, starts, ends)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == ends[0] - starts[0]


def test_nearest_ancestor_or_self():
    # names: 7 is the wanted root kind
    parents = [-1, 0, 1, 2, -1, 4]
    names = [1, 7, 2, 7, 2, 3]
    assert nearest_ancestor(parents, names, 7) == [-1, 1, 1, 3, -1, -1]
