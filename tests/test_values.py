"""The kept values: frozen slotted dataclasses whose `__init__` and `evolve`
method `model.types.value` generates."""

import copy
import dataclasses
import pickle

import pytest

from rfpop.counterexample import CexReaderRecord, CexTagState
from rfpop.ma import MaReaderRecord, MaTagState
from rfpop.model.database import SessionRecord
from rfpop.model.types import Msg, value
from rfpop.pop import PopReaderRecord, PopTagState

KEY = bytes(range(32))
RECORD = MaReaderRecord(KEY, KEY, 3, KEY[:8])

# Each value class: the positional arguments of one instance, and a change.
VALUES = {
    Msg: ((2, KEY), {"payload": KEY[:4]}),
    SessionRecord: ((7, KEY[:16], 1, KEY, KEY * 3, None, RECORD, 1, "ok"), {"o_reader": 0, "note": "timeout"}),
    MaTagState: ((KEY, KEY, 3), {"ctr": 4}),
    MaReaderRecord: ((KEY, KEY, 3, KEY[:8]), {"ctr": 4, "index": KEY[8:16]}),
    PopTagState: ((KEY, KEY, 3, KEY[::-1], "signer"), {"signer": "spent"}),
    PopReaderRecord: ((KEY, KEY, 3, KEY[:8], KEY[::-1], "verify-key"), {"ctr": 4}),
    CexTagState: ((KEY, KEY, 3, 0), {"ctr": 4, "st": 1}),
    CexReaderRecord: ((KEY, KEY, 3), {"ctr": 4}),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_classes_are_frozen_slotted_and_every_copy_equals_a_fresh_build(cls):
    args, changes = VALUES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    built = cls(*args)
    assert [getattr(built, name) for name in names] == list(args)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, names[0], None)
    assert not hasattr(built, "__dict__")

    fresh = cls(*args)
    changed = cls(**{**dict(zip(names, args)), **changes})
    for copied, expected in [
        (cls(**dict(zip(names, args))), fresh),
        (copy.deepcopy(built), fresh),
        (pickle.loads(pickle.dumps(built)), fresh),
        (built.evolve(), fresh),
        (dataclasses.replace(built), fresh),
        (built.evolve(**changes), changed),
        (dataclasses.replace(built, **changes), changed),
    ]:
        assert type(copied) is cls
        assert copied == expected
        assert hash(copied) == hash(expected)
        assert repr(copied) == repr(expected)
    assert changed != fresh
    assert built == fresh  # no copy changed its source


def test_evolve_keeps_the_subclass_and_the_fields_it_was_not_given():
    signer = object()
    state = PopTagState(KEY, KEY, 3, KEY[::-1], signer)
    bumped = state.evolve(ctr=4)
    assert type(bumped) is PopTagState
    assert bumped.signer is signer and bumped.pop_key == KEY[::-1] and bumped.ctr == 4
    assert type(CexTagState(KEY, KEY, 3).evolve(st=1)) is CexTagState


def test_defaults_fill_the_trailing_fields():
    assert SessionRecord(1, KEY[:16], 1, None) == SessionRecord(1, KEY[:16], 1, None, b"", None, None, None, "")
    assert PopTagState(KEY, KEY, 3) == PopTagState(KEY, KEY, 3, None, None)
    assert CexTagState(KEY, KEY, 3).st == 0


def test_evolve_refuses_an_unknown_field_and_runs_post_init():
    state = MaTagState(KEY, KEY, 3)
    with pytest.raises(TypeError, match="ctrr"):
        state.evolve(ctrr=9)
    with pytest.raises(ValueError, match="non-negative"):
        Msg(1, b"x").evolve(round=-1)
    with pytest.raises(ValueError, match="non-negative"):
        Msg(-1, b"")
    assert state == MaTagState(KEY, KEY, 3)


def test_value_refuses_a_field_its_builders_would_not_fill():
    with pytest.raises(TypeError, match="items"):
        @value
        class Bag:
            items: list = dataclasses.field(default_factory=list)
    with pytest.raises(TypeError, match="note"):
        @value
        class Quiet:
            size: int
            note: str = dataclasses.field(default="", init=False)
