"""Named shared-memory segments with a refcounted process registry.

``multiprocessing.shared_memory`` gives named POSIX segments
(``/dev/shm/<name>`` on Linux) but leaves lifecycle discipline to the
caller — and an undisciplined caller leaks segments that outlive every
process.  This module pins down one contract for the whole package:

* **Creation registers.**  :func:`create_segment` returns an *owned*
  :class:`Segment` and records it in a process-local registry; an
  ``atexit`` hook unlinks every still-registered segment, so a clean
  interpreter exit never leaves ``/dev/shm`` litter.
* **Crash-safe guard.**  The stdlib ``resource_tracker`` (a separate
  watchdog process) keeps its own registration for owned segments, so
  even a SIGKILL of the creator gets the segment unlinked.  An explicit
  :meth:`Segment.unlink` deregisters from both, so the normal path is
  silent.
* **Attachment never unlinks.**  :func:`attach_segment` opens an
  existing segment by name.  Attachers are always descendants of the
  owner (serve workers started after creation), which share the
  owner's resource-tracker process — the stdlib tracker keeps one name
  *set* for all its clients, so the attach-side auto-registration is a
  no-op re-add and needs no undo.  (Explicitly unregistering here would
  delete the *owner's* crash guard and make the owner's eventual unlink
  race a missing entry.)
* **Unlink keeps mappings alive.**  ``unlink()`` removes the name (the
  ``/dev/shm`` entry — the thing that can leak) but deliberately does
  not unmap: numpy views carved from the segment (a ring's planes)
  stay valid until the process exits.  The mapping itself is freed by
  the OS when the last process unmaps (at exit).
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from multiprocessing import shared_memory

import numpy as np

#: Prefix of every segment this package creates (leak checks grep it).
SEGMENT_PREFIX = "repro-shm-"

_registry_lock = threading.Lock()
#: Owned segments still holding a ``/dev/shm`` name, keyed by name.
_OWNED: dict[str, "Segment"] = {}
#: Unlinked-but-still-mapped segments (numpy views may be live; closing
#: the mapping under them would invalidate the views, so the Segment
#: objects are parked here until process exit).
_ZOMBIES: list["Segment"] = []


class Segment:
    """One named shared-memory segment plus its carving helpers.

    Args:
        shm: the underlying :class:`SharedMemory`.
        owner: whether this process created (and must unlink) it.
    """

    __slots__ = ("shm", "owner", "_unlinked")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self.shm = shm
        self.owner = owner
        self._unlinked = False

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def size(self) -> int:
        return self.shm.size

    def view(self, offset: int, count: int, dtype) -> np.ndarray:
        """A numpy array over ``count`` items of ``dtype`` at ``offset``
        bytes into the segment (zero-copy)."""
        return np.frombuffer(
            self.shm.buf, dtype=dtype, count=count, offset=offset
        )

    def unlink(self) -> None:
        """Remove the segment's name (idempotent; owner only).

        The mapping stays valid — live numpy views keep working — but
        the ``/dev/shm`` entry is gone and no new process can attach.
        """
        if self._unlinked:
            return
        self._unlinked = True
        with _registry_lock:
            _OWNED.pop(self.name, None)
            # Parked so no __del__ ever closes the buffer under a view.
            _ZOMBIES.append(self)
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # already gone (e.g. double guard)
                pass

    def close(self) -> None:
        """Unmap the segment (only safe once no views remain)."""
        self.shm.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "attached"
        return f"Segment({self.name!r}, {self.size} bytes, {role})"


def create_segment(nbytes: int, label: str = "seg") -> Segment:
    """Create an owned segment of ``nbytes`` bytes.

    The name embeds the creator pid, a label, and a random token —
    unique across concurrent processes, and recognizable (for the
    ``/dev/shm`` leak check) by :data:`SEGMENT_PREFIX`.
    """
    if nbytes <= 0:
        raise ValueError(f"segment size must be positive, got {nbytes}")
    name = f"{SEGMENT_PREFIX}{os.getpid()}-{label}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=int(nbytes))
    segment = Segment(shm, owner=True)
    with _registry_lock:
        _OWNED[segment.name] = segment
    return segment


def attach_segment(name: str) -> Segment:
    """Attach to an existing segment by name (never unlinks it)."""
    shm = shared_memory.SharedMemory(name=name, create=False)
    return Segment(shm, owner=False)


def owned_segments() -> list[str]:
    """Names of segments this process owns and has not unlinked yet
    (the leak-check vocabulary: empty after every ``close()``)."""
    with _registry_lock:
        return sorted(_OWNED)


@atexit.register
def _unlink_all_owned() -> None:  # pragma: no cover - exit path
    """Exit guard: unlink anything still owned (normal-exit leak guard;
    the resource tracker covers crashes)."""
    with _registry_lock:
        pending = list(_OWNED.values())
    for segment in pending:
        segment.unlink()


def carve(segment: Segment, specs) -> list[np.ndarray]:
    """Carve consecutive numpy views out of a segment.

    Args:
        segment: the backing segment.
        specs: iterable of ``(count, dtype)`` plane descriptions; every
            dtype here is 8 bytes wide, so consecutive planes stay
            naturally aligned.

    Returns:
        One zero-copy array per spec, in order.

    Raises:
        ValueError: if the layout exceeds the segment size.
    """
    views: list[np.ndarray] = []
    offset = 0
    for count, dtype in specs:
        dtype = np.dtype(dtype)
        nbytes = int(count) * dtype.itemsize
        if offset + nbytes > segment.size:
            raise ValueError(
                f"plane layout ({offset + nbytes} bytes) exceeds segment "
                f"{segment.name} ({segment.size} bytes)"
            )
        views.append(segment.view(offset, int(count), dtype))
        offset += nbytes
    return views


def layout_bytes(specs) -> int:
    """Total bytes the ``carve`` layout for ``specs`` needs."""
    return sum(int(count) * np.dtype(dtype).itemsize for count, dtype in specs)
