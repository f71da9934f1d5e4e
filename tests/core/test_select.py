"""``DynamicFeistelMapper.select`` over an open span, against ``translate``.

Inside a span each write is translated as of its own epoch: the
``isRemap`` bit without the marks of that step and later ones, and the
parked and displaced registers that step started from (Fig. 10).  The
writes next to a step are the ones a one-write slip would get wrong, so
each epoch here opens with the lines the step before it marked and closes
with those the step after it marks.
"""

import numpy as np
import pytest

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.wearlevel.base import SORT_MIN


def in_round(n_lines):
    """A mapper one step into a round (keys rotated), so a span of a few
    steps walks inside it."""
    mapper = DynamicFeistelMapper(n_lines, n_stages=7, rng=n_lines)
    mapper.step()
    return mapper


@pytest.mark.parametrize("n_lines,count,above", [(16, 5, False), (64, 20, True)])
def test_select_matches_translate_in_each_epoch(n_lines, count, above):
    twin = in_round(n_lines)
    marks = []
    for _ in range(count):
        before = twin.is_remapped.copy()
        twin.step()
        marks.append(np.flatnonzero(twin.is_remapped & ~before))
    twin = in_round(n_lines)
    las, epoch, expected = [], [], []
    for e in range(count + 1):
        writes = np.concatenate(
            (marks[e - 1] if e else [], np.arange(n_lines)[::-1],
             marks[e] if e < count else [])
        ).astype(np.int64)
        expected += [twin.translate(int(la)) for la in writes]
        las.append(writes)
        epoch += [e] * writes.size
        twin.step()
    las = np.concatenate(las)
    assert (las.size >= SORT_MIN) == above

    mapper = in_round(n_lines)
    assert len(mapper.step_span(count, rotate=False)) == count
    got = mapper.select(
        las,
        mapper.feistel_c.encrypt(las).astype(np.int64),
        mapper.feistel_p.encrypt(las).astype(np.int64),
        np.array(epoch),
    )
    mapper.end_span(count)
    assert got.tolist() == expected
