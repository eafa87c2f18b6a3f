"""Shared-memory segment registry and plane carving."""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.shm import (
    SEGMENT_PREFIX,
    attach_segment,
    carve,
    create_segment,
    layout_bytes,
    owned_segments,
)


def shm_entries() -> set[str]:
    """Current ``/dev/shm`` entries created by this package."""
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


class TestSegmentLifecycle:
    def test_create_view_unlink(self):
        before = shm_entries()
        seg = create_segment(1024, label="t")
        assert seg.owner
        assert seg.name.startswith(SEGMENT_PREFIX)
        assert seg.name in owned_segments()
        assert shm_entries() - before  # visible in /dev/shm
        view = seg.view(0, 128, np.int64)
        view[:] = np.arange(128)
        seg.unlink()
        assert seg.name not in owned_segments()
        assert shm_entries() == before
        # Mappings survive the unlink: live views keep working.
        assert view[127] == 127
        seg.unlink()  # idempotent

    def test_attach_sees_writes(self):
        seg = create_segment(256, label="t")
        try:
            seg.view(0, 32, np.int64)[:] = 7
            twin = attach_segment(seg.name)
            assert not twin.owner
            assert (twin.view(0, 32, np.int64) == 7).all()
        finally:
            seg.unlink()

    def test_attach_missing_name_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_segment(f"{SEGMENT_PREFIX}does-not-exist")

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            create_segment(0)


class TestCarve:
    SPECS = [(16, np.uint64), (16, np.uint64), (8, np.int64), (4, np.float64)]

    def test_layout_round_trip(self):
        seg = create_segment(layout_bytes(self.SPECS), label="t")
        try:
            views = carve(seg, self.SPECS)
            assert [v.dtype for v in views] == [
                np.dtype(d) for _, d in self.SPECS
            ]
            assert [v.size for v in views] == [n for n, _ in self.SPECS]
            for i, v in enumerate(views):
                v[:] = i + 1
            # Re-carving recovers the same planes (the attach-side path).
            again = carve(seg, self.SPECS)
            for i, v in enumerate(again):
                assert (v == i + 1).all()
        finally:
            seg.unlink()

    def test_oversized_layout_rejected(self):
        seg = create_segment(64, label="t")
        try:
            with pytest.raises(ValueError, match="exceeds segment"):
                carve(seg, [(100, np.int64)])
        finally:
            seg.unlink()
