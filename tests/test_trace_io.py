"""Tests for repro.traces.io (trace-array persistence)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traces.io import load_trace_arrays, save_trace_arrays
from repro.traces.trace import Trace, trace_from_keys


class TestTraceArrays:
    """The mmap-friendly directory layout the sweep workers read."""

    def test_roundtrip_exact(self, small_trace, tmp_path):
        path = save_trace_arrays(small_trace, tmp_path / "t")
        back = load_trace_arrays(path)
        assert back.name == small_trace.name
        assert back.flow_keys == small_trace.flow_keys
        assert np.array_equal(back.order, small_trace.order)
        assert back.true_sizes() == small_trace.true_sizes()
        # The 64-bit halves the batch engine consumes survive too.
        lo, hi = back.flow_batch().halves()
        ref_lo, ref_hi = small_trace.flow_batch().halves()
        assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)

    def test_timestamps_and_104_bit_keys(self, tmp_path):
        big = (1 << 103) | 0xDEADBEEF
        t = Trace(
            [big, 42],
            np.array([0, 1, 0]),
            timestamps=np.array([0.25, 0.5, 1.0]),
            name="ts",
        )
        back = load_trace_arrays(save_trace_arrays(t, tmp_path / "t"))
        assert back.flow_keys == [big, 42]
        assert np.allclose(back.timestamps, t.timestamps)

    def test_empty_untimed_trace_roundtrips(self, tmp_path):
        """A window with no traffic still caches and loads."""
        back = load_trace_arrays(save_trace_arrays(trace_from_keys([]), tmp_path / "t"))
        assert back.flow_keys == []
        assert len(back) == 0
        assert back.timestamps is None

    def test_mmap_mode_gives_same_arrays(self, small_trace, tmp_path):
        path = save_trace_arrays(small_trace, tmp_path / "t")
        mapped = load_trace_arrays(path, mmap=True)
        eager = load_trace_arrays(path, mmap=False)
        # Trace.__init__'s asarray may strip the memmap subclass but
        # must not copy: the per-packet array stays disk-backed.
        backing = mapped.order if isinstance(mapped.order, np.memmap) else mapped.order.base
        assert isinstance(backing, np.memmap)
        assert np.array_equal(mapped.order, eager.order)

    def test_existing_dir_not_overwritten(self, tiny_trace, small_trace, tmp_path):
        """The layout is content-keyed: a second save is a no-op."""
        path = save_trace_arrays(tiny_trace, tmp_path / "t")
        save_trace_arrays(small_trace, path)  # racing producer, ignored
        assert load_trace_arrays(path).flow_keys == tiny_trace.flow_keys

    def test_save_leaves_only_the_destination(self, tiny_trace, tmp_path):
        """Arrays are staged in a scratch directory renamed into place."""
        path = save_trace_arrays(tiny_trace, tmp_path / "t")
        save_trace_arrays(tiny_trace, path)
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_save_leaves_nothing(self, tiny_trace, tmp_path, monkeypatch):
        """A writer that dies mid-save leaves no partial directory for a
        reader to load or for the next producer to trip over."""
        def disk_full(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "save", disk_full)
        with pytest.raises(OSError, match="no space"):
            save_trace_arrays(tiny_trace, tmp_path / "t")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        path = save_trace_arrays(tiny_trace, tmp_path / "t")
        assert load_trace_arrays(path).flow_keys == tiny_trace.flow_keys

    def test_missing_and_bad_version_rejected(self, tiny_trace, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace_arrays(tmp_path / "nope")
        path = save_trace_arrays(tiny_trace, tmp_path / "t")
        meta = json.loads((path / "meta.json").read_text())
        meta["version"] = 999
        (path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_trace_arrays(path)
