"""Tests for the skip rule at its boundaries: _skips_outweigh and
Report.add_sampled for a check over a fixed list of samples, and redraw for
one that redraws its refused samples."""

from __future__ import annotations

import copy
import pickle

import pytest

from nearfields.errors import IntegrityError, ResourceLimitError
from nearfields.report import Check, Report, _skips_outweigh, redraw


def test_add_sampled_allows_as_many_skipped_as_checked():
    assert not _skips_outweigh(checked=4, skipped=4) and _skips_outweigh(checked=4, skipped=5)
    rep = Report("t")
    assert rep.add_sampled("even", None, checked=4, skipped=4).ok
    assert not rep.add_sampled("one_more", None, checked=4, skipped=5).ok
    bad = rep.add_sampled("witness", (1, 2), checked=4, skipped=0)
    assert not bad.ok
    assert bad.witness == (1, 2)
    assert [c.name for c in rep.failures()] == ["one_more", "witness"]
    # but a list whose every sample was excluded before it was checked or
    # skipped gives no verdict
    assert _skips_outweigh(checked=0, skipped=0) and not _skips_outweigh(checked=1, skipped=1)
    assert not rep.add_sampled("empty", None, checked=0, skipped=0).ok
    assert rep.add_sampled("one", None, checked=1, skipped=0).ok
    assert [c.name for c in rep.failures()] == ["one_more", "witness", "empty"]


def test_checks_are_slotted():
    # A pass keeps hundreds of checks, so each carries no per-instance dict.
    check = Report("t").add("one", True, witness=(1, 2), detail="d")
    assert isinstance(check, Check) and not hasattr(check, "__dict__")
    assert (check.name, check.ok, check.witness, check.detail) == ("one", True, (1, 2), "d")


def _scripted(refused, fail_on=None):
    """A draw of the sample numbers 0, 1, 2, ... and a check that refuses
    each sample in refused with its own ResourceLimitError, and raises
    IntegrityError on fail_on. Returns draw, check, the samples checked
    in order and the refusals raised, by sample."""
    drawn, seen, errors = iter(range(1000)), [], {}

    def check(i):
        seen.append(i)
        if i == fail_on:
            raise IntegrityError(f"sample {i} failed")
        if i in refused:
            errors[i] = ResourceLimitError(f"sample {i} refused", ceiling=100 + i)
            raise errors[i]

    return (lambda: (next(drawn),)), check, seen, errors


def test_redraw_absorbs_exactly_trials_skips():
    draw, check, seen, _ = _scripted({0, 2, 3})
    assert redraw(draw, check, 3) == 3
    assert seen == [0, 1, 2, 3, 4, 5]
    draw, check, seen, _ = _scripted(set())
    assert redraw(draw, check, 3) == 0
    assert seen == [0, 1, 2]
    draw, check, seen, _ = _scripted(set())
    assert redraw(draw, check, 0) == 0
    assert seen == []


def test_redraw_reraises_the_skip_past_trials_unchanged():
    draw, check, seen, errors = _scripted({0, 1, 3, 4})
    with pytest.raises(ResourceLimitError) as err:
        redraw(draw, check, 3)
    assert err.value is errors[4]
    assert err.value.ceiling == 104
    assert seen == [0, 1, 2, 3, 4]


def test_a_refusal_names_its_ceiling():
    assert ResourceLimitError("refused", ceiling=7).ceiling == 7
    with pytest.raises(TypeError, match="ceiling"):
        ResourceLimitError("refused")
    # pickle and copy rebuild it with its type, message and ceiling
    err = ResourceLimitError("refused at 7", ceiling=7)
    for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(twin) is ResourceLimitError
        assert str(twin) == "refused at 7" and twin.args == err.args
        assert twin.ceiling == 7


def test_redraw_does_not_count_other_errors():
    draw, check, seen, _ = _scripted(set(), fail_on=1)
    with pytest.raises(IntegrityError):
        redraw(draw, check, 5)
    assert seen == [0, 1]
