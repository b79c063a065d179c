"""Generic reader/tag session model: message types, databases with snapshot
history, and the party state machines the concrete protocols plug into."""
