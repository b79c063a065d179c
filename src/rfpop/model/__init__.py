"""Generic reader/tag session model: message types, databases with snapshot
history, and the party state machines the concrete protocols plug into."""

from rfpop.model.types import (
    IGNORE,
    MessageSlot,
    Msg,
    StepOutcome,
    Transcript,
)
from rfpop.model.session import (
    Reader,
    Tag,
    run_honest_session,
)

__all__ = [
    "IGNORE",
    "MessageSlot",
    "Msg",
    "StepOutcome",
    "Transcript",
    "Reader",
    "Tag",
    "run_honest_session",
]
