"""Generator-coroutine processes.

A process wraps a generator.  The generator yields :class:`Event` objects;
each yield suspends the process until the event triggers, at which point
the event's value is sent back in (or its exception thrown in).  Blocking
sub-operations are ordinary sub-generators composed with ``yield from``.

A :class:`Process` is itself an event: it triggers with the generator's
return value when the generator finishes, so processes can wait on each
other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .errors import Interrupt
from .events import Event, PENDING


class Process(Event):
    """A running generator, resumable by the engine."""

    __slots__ = ("generator", "target", "_resume_scheduled")

    def __init__(self, env, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "proc"))
        self.generator = generator
        #: The event this process is currently waiting on (None if about to run).
        self.target: Optional[Event] = None
        # Kick off the process via an immediately-succeeding init event.
        init = Event(env, name=f"init:{self.name}")
        init.callbacks.append(self._resume)
        init.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event
        itself is unaffected and may trigger later without resuming us).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self.target is None:
            raise RuntimeError(f"{self} cannot interrupt itself")
        # Deliver through a fresh failed event so the engine resumes us
        # through the normal path at the current sim time.
        exc = Interrupt(cause)
        hit = Event(self.env, name=f"interrupt:{self.name}")
        hit.callbacks.append(self._resume)
        # Detach from the old target so a later trigger doesn't double-resume.
        old = self.target
        if old is not None and old.callbacks is not None:
            try:
                old.callbacks.remove(self._resume)
            except ValueError:
                pass
            # Events that hold claims (resource requests) must give them
            # back, or the capacity leaks to a process that no longer
            # exists.
            cancel = getattr(old, "cancel", None)
            if cancel is not None:
                cancel()
        self.target = None
        hit.fail(exc)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.target = None
        try:
            if event._ok:
                next_ev = self.generator.send(event._value)
            else:
                # The exception is being delivered; mark it handled.
                event.defuse()
                next_ev = self.generator.throw(event._value)
        except StopIteration as stop:
            # With nobody waiting, the finish needs no heap entry.  A
            # failed process below always gets its entry, so an
            # unhandled failure still crashes the run.
            self.settle(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if not isinstance(next_ev, Event):
            # Tell the generator it yielded garbage; this produces a clean
            # traceback inside the process body.
            hit = Event(self.env, name=f"badyield:{self.name}")
            hit.callbacks.append(self._resume)
            hit.fail(
                TypeError(
                    f"process {self.name!r} yielded {next_ev!r}; "
                    "processes must yield Event instances"
                )
            )
            return
        if next_ev.env is not self.env:
            hit = Event(self.env, name=f"foreign:{self.name}")
            hit.callbacks.append(self._resume)
            hit.fail(ValueError("yielded event belongs to a different engine"))
            return

        self.target = next_ev
        if next_ev.callbacks is None:
            # Already processed: resume on a fresh event carrying its value.
            carry = Event(self.env, name=f"carry:{self.name}")
            carry.callbacks.append(self._resume)
            self.target = carry
            carry.trigger(next_ev)
        else:
            next_ev.callbacks.append(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"
