"""Event lists above the sort floor, against the scalar replay.

``EventPlan`` finds each movement's data, each user write's place among
the line writes and the running wear count of each line through sorted
composites (:func:`repro.wearlevel.base.sorted_composites`), which sort by
numpy's stable argsort below ``SORT_MIN`` keys and by one sort of the
composites from there on.  The window tests of ``tests/sim`` stay below the
floor; these lists hold more user writes than it, on few lines, so that
nearly every movement reads a line some user write of its own position or
a neighbouring one writes.
"""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.wearlevel.base import SORT_MIN
from tests.sim.test_write_chunk import ARRAYS, assert_events_match

N_WRITES = 2 * SORT_MIN + 7


def event_list(seed, n_writes=N_WRITES, n_lines=16, n_moves=300):
    """Random user writes with copies and swaps between them; movement
    positions repeat, and the last ones run before the last write."""
    rng = np.random.default_rng(seed)
    pas = rng.integers(0, n_lines, size=n_writes).tolist()
    datas = rng.integers(0, 3, size=n_writes).tolist()
    at = np.sort(rng.integers(0, n_writes, size=n_moves))
    at[-3:] = n_writes - 1
    moves = []
    for m in range(n_moves):
        a, b = rng.choice(n_lines, size=2, replace=False).tolist()
        moves.append((int(at[m]), bool(rng.random() < 0.5), a, b))
    before = [(line, int(rng.integers(0, 3))) for line in range(n_lines)]
    return pas, datas, moves, before


@pytest.fixture(params=sorted(ARRAYS))
def make_array(request):
    return lambda config: ARRAYS[request.param](config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_window_above_the_floor(make_array, seed):
    pas, datas, moves, before = event_list(seed)
    config = PCMConfig(n_lines=16, endurance=1e9)
    out = assert_events_match(lambda: make_array(config), pas, datas, moves, before)
    assert out[1] is None


@pytest.mark.parametrize("seed", [4, 5])
def test_differential_writes_above_the_floor(make_array, seed):
    pas, datas, moves, before = event_list(seed)
    config = PCMConfig(n_lines=16, endurance=1e9, differential_writes=True)
    assert_events_match(lambda: make_array(config), pas, datas, moves, before)


@pytest.mark.parametrize("endurance", [65, 75, 85])
def test_failure_above_the_floor(make_array, endurance):
    """Each line takes ~90 line writes of the list: the first that wears
    a line out lies past the floor."""
    pas, datas, moves, before = event_list(endurance)
    config = PCMConfig(n_lines=16, endurance=endurance)
    out = assert_events_match(lambda: make_array(config), pas, datas, moves, before)
    assert out[1] is not None and out[1][1] > SORT_MIN
