"""Primitive layer: byte helpers, deterministic RNG, keyed functions,
signatures, group arithmetic, and operation counters."""
