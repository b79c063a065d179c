"""Message and outcome types for the session model.

Every protocol value a message carries, and every sid, is `bytes`; a
protocol's slots are the one payload length (in bytes) each round admits, and
the session machines check a payload against them before a protocol sees it.

Messages carry an explicit round marker. The default parameter sizes make a
session-start challenge and a final confirmation the same length, so "does
this message open a session?" cannot be decided from length alone; the
marker is structural framing (the wire format encodes it as the frame type),
not secret data.

A `Msg` is held by transcripts; the journal keeps payloads, packed into one
`bytes` per session (`SessionRecord.messages`). A `StepOutcome` lives only
until its caller has read it, so it is a `NamedTuple`: immutable, and built
at C speed.

Every value that is kept or shared (`Msg`, the journal's `SessionRecord`,
the tag states and the reader records) is a `value` class: a frozen slotted
dataclass with a generated `__init__` and a generated `evolve` method, its
one way to make a changed copy.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple, Optional

SID_BITS = 128

_KEEP = object()  # an `evolve` argument left out: the field keeps its value


def value(cls):
    """Class decorator: `cls` as a frozen slotted dataclass whose `__init__`
    and `evolve` method are generated here, both in one `exec`.

    Both write each field through its slot's member descriptor, the write
    that `object.__setattr__` ends in, so a build makes no global lookup and
    no generic attribute dispatch per field; they keep the defaults and call
    `__post_init__` last, as the dataclass `__init__` does. `dataclass` is
    asked for no `__init__` of its own, which would only be compiled to be
    replaced; without it, `dataclass` would describe a class that has no
    docstring by an inherited signature, so each value class has one. A
    field that is keyword-only, has a `default_factory` or is left out of
    `__init__` is refused when the class is defined, since the generated
    functions take every field positionally and fill it from an argument.

    `obj.evolve(**changes)` is `dataclasses.replace(obj, **changes)`: a copy
    of the same class with `changes` applied. A name that is not a field
    raises `TypeError`, and `__post_init__` runs. It runs per session on
    each side, where `replace`'s checks would cost more."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    scope = {"_new": object.__new__, "_cls": cls, "_KEEP": _KEEP}
    names, params = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: a value field is a positional "
                            f"__init__ argument with no default_factory")
        names.append(f.name)
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    sets = "".join(f"    _set_{n}(self, {n})\n" for n in names)
    keeps = "".join(f"    _set_{n}(self, old.{n} if {n} is _KEEP else {n})\n" for n in names)
    exec(f"def __init__(self, {', '.join(params)}):\n{sets}{post}"
         f"def evolve(old, {', '.join(f'{n}=_KEEP' for n in names)}):\n"
         f"    self = _new(_cls)\n{keeps}{post}    return self\n", scope)
    for name in ("__init__", "evolve"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, scope[name])
    return cls


@value
class Msg:
    """One protocol message: round index (0 = session-start challenge) plus
    payload bytes."""

    round: int
    payload: bytes

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round index must be non-negative")


@dataclass
class Transcript:
    """Messages exchanged in one session, with the two terminal outputs."""

    sid: bytes
    messages: list[Msg] = field(default_factory=list)
    o_reader: Optional[int] = None
    o_tag: Optional[int] = None

    @property
    def completed(self) -> bool:
        return self.o_reader == 1 and self.o_tag == 1


class StepOutcome(NamedTuple):
    """Result of delivering one message to a party: the message it sends
    next, if any, and its terminal output bit, if it ended. Neither set means
    the message was dropped without a state change.

    `kind` names the four shapes: reply (message only), reply_output
    (message and output), output (output only) and ignore (neither).
    """

    sid: Optional[bytes] = None
    msg: Optional[Msg] = None
    output: Optional[int] = None

    @property
    def kind(self) -> str:
        if self.msg is None:
            return "ignore" if self.output is None else "output"
        return "reply" if self.output is None else "reply_output"


IGNORE = StepOutcome()
