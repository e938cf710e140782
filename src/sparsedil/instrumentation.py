"""Opt-in operation counters for structural assertions and benchmarking.

Counters are disabled unless a `counting()` scope is active, so the hot
paths pay a single context-variable lookup. Scopes nest: every active scope
sees every event, which lets a benchmark keep a grand total while a caller
counts one sub-computation. The active scopes live in a context
variable, so a scope counts only the events of its own thread (or asyncio
task).
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class Counters:
    modmul: int = 0        # general-width modular multiplications
    xof_bytes: int = 0     # SHAKE output bytes requested


_active: ContextVar[tuple[Counters, ...]] = ContextVar("sparsedil_counters", default=())


def add_modmul(count: int) -> None:
    for c in _active.get():
        c.modmul += count


def add_xof_bytes(count: int) -> None:
    for c in _active.get():
        c.xof_bytes += count


@contextmanager
def counting():
    """Activate a fresh counter for the duration of the scope and yield it."""
    c = Counters()
    token = _active.set(_active.get() + (c,))
    try:
        yield c
    finally:
        _active.reset(token)
