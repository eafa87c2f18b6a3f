"""Flow store unit tests: summaries, hierarchy, planner, sink, CLI, specs."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.flowdb import (
    FlowStore,
    FlowStoreSink,
    FlowSummary,
    QuerySpec,
    StoreError,
    StoreSpec,
    UNMEASURED,
    execute,
    merge_summaries,
)
from repro.specs import SpecError
from repro.stream.records import FlowRecord, RecordBatch


def recs(spec: dict[int, int], octets: int | None = 64) -> RecordBatch:
    return RecordBatch.from_records(
        FlowRecord(key=k, packets=c, octets=None if octets is None else c * octets)
        for k, c in spec.items()
    )


class TestFlowSummary:
    def test_from_records_sums_duplicates(self):
        summary = FlowSummary.from_records(
            [FlowRecord(key=5, packets=2, octets=100),
             FlowRecord(key=5, packets=3, octets=150),
             FlowRecord(key=9, packets=1, octets=50)]
        )
        assert summary.counts() == {5: 5, 9: 1}
        assert summary.octet_counts() == {5: 250, 9: 50}

    def test_missing_octets_are_unmeasured(self):
        summary = FlowSummary.from_records(
            [FlowRecord(key=1, packets=1),
             FlowRecord(key=2, packets=2, octets=99)]
        )
        assert summary.octet_counts() == {1: UNMEASURED, 2: 99}

    def test_lookup_hits_and_misses(self):
        big = 1 << 100  # exercises the hi-half searchsorted path
        summary = FlowSummary.from_counts({3: 7, big: 11}, {3: 70, big: 110})
        assert summary.lookup(3) == (7, 70)
        assert summary.lookup(big) == (11, 110)
        assert summary.lookup(4) is None
        assert summary.lookup(big + 1) is None

    def test_top_k_matches_python_sort_with_ties(self):
        counts = {10: 5, 11: 5, 12: 5, 13: 9, 14: 1}
        summary = FlowSummary.from_counts(counts)
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert summary.top_k(3) == expected[:3]
        assert summary.top_k(99) == expected
        assert summary.top_k(0) == []

    def test_merge_sum_and_max_match_netwide_semantics(self):
        from repro.netwide.merge import merge_max, merge_sum

        a = {1: 4, 2: 9}
        b = {2: 5, 3: 1}
        sa, sb = FlowSummary.from_counts(a), FlowSummary.from_counts(b)
        assert merge_summaries([sa, sb], mode="sum").counts() == merge_sum([a, b])
        assert merge_summaries([sa, sb], mode="max").counts() == merge_max([a, b])

    def test_merge_poisons_octets_on_unmeasured(self):
        a = FlowSummary.from_counts({1: 1}, {1: 100})
        b = FlowSummary.from_counts({1: 2}, {1: UNMEASURED})
        merged = merge_summaries([a, b], mode="sum")
        assert merged.counts() == {1: 3}
        assert merged.octet_counts() == {1: UNMEASURED}

    def test_merge_unions_degraded_windows(self):
        a = FlowSummary.from_counts({1: 1}, degraded_windows=(3,))
        b = FlowSummary.from_counts({2: 1}, degraded_windows=(5,))
        merged = merge_summaries([a, b])
        assert merged.degraded_windows == (3, 5)
        assert merged.degraded

    def test_merge_of_nothing_is_empty(self):
        merged = merge_summaries([])
        assert len(merged) == 0 and not merged.degraded

    def test_bad_merge_mode_rejected(self):
        with pytest.raises(ValueError, match="merge mode"):
            merge_summaries([], mode="median")


class TestFlowStore:
    def test_open_or_create_round_trips_spec(self, tmp_path):
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=4))
        again = FlowStore(tmp_path / "s")
        assert again.spec == StoreSpec(fanout=4)

    def test_conflicting_spec_rejected(self, tmp_path):
        FlowStore(tmp_path / "s", StoreSpec(fanout=4))
        with pytest.raises(StoreError, match="refusing to reopen"):
            FlowStore(tmp_path / "s", StoreSpec(fanout=8))

    def test_window_collision_rejected_without_append(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("a", {0: recs({1: 1})})
        with pytest.raises(StoreError, match="already ingested"):
            store.ingest_rotations("a", {0: recs({2: 2})})

    def test_append_offsets_past_existing_windows(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("a", {0: recs({1: 1}), 2: recs({2: 2})})
        written = store.ingest_rotations(
            "a", {0: recs({3: 3}), 1: recs({4: 4})}, append=True
        )
        assert written == [3, 4]
        assert store.leaf_windows("a") == [0, 2, 3, 4]

    def test_bad_vantage_name_rejected(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        for bad in ("", ".hidden", "a/b", "a b"):
            with pytest.raises(StoreError, match="path-safe"):
                store.ingest_rotations(bad, {0: recs({1: 1})})

    def test_degraded_rotation_taints_its_window(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations(
            "a", {0: recs({1: 1}), 1: recs({2: 2})}, degraded={1}
        )
        assert store.summarize("a", [0]).degraded_windows == ()
        assert store.summarize("a", [0, 1]).degraded_windows == (1,)

    def test_merge_up_builds_exact_parents(self, tmp_path):
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=2))
        windows = {w: {w + 1: w + 1, 999: 1} for w in range(4)}
        store.ingest_rotations("a", {w: recs(c) for w, c in windows.items()})
        store.merge_up("a")
        assert store.levels("a") == [0, 1, 2]
        top = store.load_node("a", 2, 0)
        expected = {999: 4}
        for w, c in windows.items():
            expected[w + 1] = w + 1
        assert top.counts() == expected

    def test_plan_prefers_parents_and_detects_staleness(self, tmp_path):
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=2))
        store.ingest_rotations("a", {w: recs({w: 1}) for w in range(4)})
        store.merge_up("a")
        assert [(r.level, r.start) for r in store.plan("a", range(4))] == [(2, 0)]
        # A leaf ingested after the merge makes the parents stale for
        # ranges including it: the planner falls back to finer nodes.
        store.ingest_rotations("a", {4: recs({4: 1})}, append=False)
        plan = store.plan("a", range(5))
        assert (0, 4) in [(r.level, r.start) for r in plan]
        assert store.summarize("a", range(5)).counts() == {w: 1 for w in range(5)}
        # merge_up refreshes: the filled groups answer from one parent
        # again; window 4 stays a leaf (a lone child gets no parent).
        store.merge_up("a")
        assert [(r.level, r.start) for r in store.plan("a", range(5))] == [
            (2, 0), (0, 4),
        ]

    def test_answers_from_parents_after_leaves_deleted(self, tmp_path):
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=2))
        store.ingest_rotations("a", {w: recs({w: 1, 77: 2}) for w in range(4)})
        store.merge_up("a")
        for w in range(4):
            (tmp_path / "s" / "vantages" / "a" / "L0" / f"w{w:08d}.flow").unlink()
        assert store.leaf_windows("a") == [0, 1, 2, 3]
        assert store.summarize("a", range(4)).counts()[77] == 8

    def test_plan_rejects_uncovered_windows(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("a", {0: recs({1: 1})})
        with pytest.raises(StoreError, match="no stored summary"):
            store.plan("a", [0, 7])

    def test_ingest_archive_propagates_degraded(self, tmp_path):
        from repro.stream.sinks import NetFlowV5Sink

        directory = tmp_path / "arch"
        sink = NetFlowV5Sink(directory=str(directory))
        sink.emit(recs({1: 3, 2: 1}), 0, 0.0)
        sink.emit(recs({1: 2}), 1, 1.0)
        sink.flag_degraded(1)
        sink.close()
        store = FlowStore(tmp_path / "s")
        assert store.ingest_archive("edge", directory) == [0, 1]
        summary = store.summarize("edge", [0, 1])
        assert summary.counts() == {1: 5, 2: 1}
        assert summary.degraded_windows == (1,)

    def test_ingest_text_archives_match_netflow(self, tmp_path):
        from repro.stream.sinks import NetFlowV5Sink, TextSink

        flows = {11: 4, 12: 9, (1 << 90) + 5: 2}
        stores = {}
        for name, sink in (
            ("nfv5", NetFlowV5Sink(directory=str(tmp_path / "a1"))),
            ("jsonl", TextSink(fmt="jsonl", directory=str(tmp_path / "a2"))),
            ("csv", TextSink(fmt="csv", directory=str(tmp_path / "a3"))),
        ):
            sink.emit(recs(flows), 0, 0.0)
            sink.close()
            store = FlowStore(tmp_path / f"s-{name}")
            store.ingest_archive("v", sink.directory)
            stores[name] = store.summarize("v", [0]).counts()
        assert stores["nfv5"] == stores["jsonl"] == stores["csv"] == flows

    def test_ingest_netflow_file_single_window(self, tmp_path):
        from repro.export.netflow_v5 import NetFlowV5Exporter

        exporter = NetFlowV5Exporter()
        data = b"".join(exporter.export(recs({1: 5, 2: 3}, octets=None)))
        path = tmp_path / "capture.nfv5"
        path.write_bytes(data)
        store = FlowStore(tmp_path / "s")
        assert store.ingest_netflow_file("cap", path) == [0]
        assert store.ingest_netflow_file("cap", path, append=True) == [1]
        assert store.summarize("cap", [0, 1]).counts() == {1: 10, 2: 6}

    def test_describe_inventories_the_store(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("a", {0: recs({1: 1})}, degraded={0})
        info = store.describe()
        assert info["vantages"]["a"]["windows"] == [0]
        assert info["vantages"]["a"]["degraded_windows"] == [0]
        json.dumps(info)  # JSON-native throughout


class TestQuerySpec:
    def test_round_trips_json(self):
        spec = QuerySpec(op="lookup", key=42, vantages=("a", "b"), last=3)
        assert QuerySpec.from_json(spec.to_json()) == spec

    def test_rejects_bad_fields(self):
        with pytest.raises(SpecError):
            QuerySpec(op="avg")
        with pytest.raises(SpecError):
            QuerySpec(op="lookup")  # no key
        with pytest.raises(SpecError):
            QuerySpec(merge="median")
        with pytest.raises(SpecError):
            QuerySpec(last=0)
        with pytest.raises(SpecError):
            QuerySpec(start=5, stop=4)
        with pytest.raises(SpecError):
            QuerySpec.from_dict({"op": "topk", "bogus": 1})


class TestExecute:
    def _store(self, tmp_path):
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=2))
        store.ingest_rotations(
            "a", {0: recs({1: 10, 2: 1}), 1: recs({1: 5, 3: 2})}
        )
        store.ingest_rotations("b", {0: recs({1: 7, 4: 4})})
        for vantage in ("a", "b"):
            store.merge_up(vantage)
        return store

    def test_topk_cross_vantage_max_and_sum(self, tmp_path):
        store = self._store(tmp_path)
        top = execute(store, QuerySpec(op="topk", k=2, merge="max"))["results"]
        assert [(r["key"], r["packets"]) for r in top] == [(1, 15), (4, 4)]
        top = execute(store, QuerySpec(op="topk", k=2, merge="sum"))["results"]
        assert [(r["key"], r["packets"]) for r in top] == [(1, 22), (4, 4)]

    def test_lookup_drills_down_per_window(self, tmp_path):
        store = self._store(tmp_path)
        out = execute(store, QuerySpec(op="lookup", key=1, vantages=("a",)))
        assert (out["found"], out["packets"]) == (True, 15)
        assert out["by_vantage"]["a"]["series"] == [
            {"window": 0, "packets": 10},
            {"window": 1, "packets": 5},
        ]

    def test_last_n_windows(self, tmp_path):
        store = self._store(tmp_path)
        out = execute(
            store, QuerySpec(op="cardinality", vantages=("a",), last=1)
        )
        assert out["flows"] == 2  # window 1 only: flows 1 and 3

    def test_unknown_vantage_rejected(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(StoreError, match="unknown vantages"):
            execute(store, QuerySpec(vantages=("zz",)))


class TestLookupReadsEachLeafOnce:
    """A lookup reads each selected window's leaf once, yet answers as
    the merged plan would: per vantage ``summarize`` + ``lookup``, then
    the cross-vantage fold."""

    WINDOWS = 12

    @pytest.fixture
    def store(self, tmp_path):
        import random

        rng = random.Random(7)
        store = FlowStore(tmp_path / "s", StoreSpec(fanout=4))
        degraded = {"a": {2, 9}, "b": {5}}
        for vantage in ("a", "b"):
            by_rotation = {}
            for window in range(self.WINDOWS):
                rows = [
                    FlowRecord(
                        key=rng.randrange(1, 40),
                        packets=rng.randrange(1, 9),
                        # Key 13 is measured everywhere; the rest mix
                        # measured and unmeasured octets.
                        octets=(
                            None if rng.random() < 0.3 and key_is_mixed else 64
                        ),
                    )
                    for key_is_mixed in [True] * rng.randrange(4, 12)
                ] + [FlowRecord(key=13, packets=window + 1, octets=100)]
                by_rotation[window] = RecordBatch.from_records(rows)
            store.ingest_rotations(vantage, by_rotation, degraded[vantage])
            store.merge_up(vantage)
        # Tier away a whole parent's span of "a" and one lone leaf of "b".
        for window in (0, 1, 2, 3):
            store._node_path("a", 0, window).unlink()
        store._node_path("b", 0, 9).unlink()
        return store

    @staticmethod
    def expected(store, spec):
        per_vantage = {}
        for vantage in ("a", "b"):
            windows = store.leaf_windows(vantage)
            if spec.last is not None:
                windows = windows[-spec.last:]
            per_vantage[vantage] = (windows, store.summarize(vantage, windows))
        merged = merge_summaries(
            [summary for _, summary in per_vantage.values()], mode=spec.merge
        )
        return per_vantage, merged.lookup(spec.key)

    @pytest.mark.parametrize("merge", ["max", "sum"])
    @pytest.mark.parametrize("last", [1, 8, None])
    @pytest.mark.parametrize("key", [13, 5, 21, 999])
    def test_lookup_equals_summarize_then_lookup(self, store, merge, last, key):
        spec = QuerySpec(op="lookup", key=key, last=last, merge=merge)
        per_vantage, hit = self.expected(store, spec)
        answer = execute(store, spec)
        assert answer["found"] == (hit is not None)
        assert answer["packets"] == (hit[0] if hit else 0)
        assert answer["octets"] == (
            hit[1] if hit is not None and hit[1] != UNMEASURED else None
        )
        for vantage, (windows, summary) in per_vantage.items():
            vhit = summary.lookup(key)
            detail = answer["by_vantage"][vantage]
            assert detail["packets"] == (vhit[0] if vhit else 0)
            series = []
            for window in windows:
                if store.has_node(vantage, 0, window):
                    whit = store.load_node(vantage, 0, window).lookup(key)
                    if whit is not None:
                        series.append({"window": window, "packets": whit[0]})
            assert detail["series"] == series
            provenance = answer["vantages"][vantage]
            assert provenance["windows"] == windows
            assert provenance["degraded_windows"] == sorted(summary.degraded_windows)
        assert answer["degraded"] == any(
            summary.degraded for _, summary in per_vantage.values()
        )

    def test_nodes_count_what_was_read(self, store):
        answer = execute(store, QuerySpec(op="lookup", key=13))
        # Over all 12 windows the plan's one L2 parent stands in for the
        # tiered-away leaves, beside the 8 ("a") / 11 ("b") leaves left.
        assert answer["vantages"]["a"]["nodes"] == 9
        assert answer["vantages"]["a"]["levels"] == [0, 2]
        assert answer["vantages"]["b"]["nodes"] == 12
        assert answer["vantages"]["b"]["levels"] == [0, 2]
        # Over the last 8, "a" still has every leaf: no parent is read;
        # "b" plans windows 4..11 as L1 parents and reads the one
        # holding window 9.
        recent = execute(store, QuerySpec(op="lookup", key=13, last=8))
        assert recent["vantages"]["a"]["nodes"] == 8
        assert recent["vantages"]["a"]["levels"] == [0]
        assert recent["vantages"]["b"]["nodes"] == 8
        assert recent["vantages"]["b"]["levels"] == [0, 1]

    def test_unreadable_leaf_raises(self, store):
        store._node_path("a", 0, 11).write_bytes(b"not a node")
        with pytest.raises(StoreError, match="unreadable"):
            execute(store, QuerySpec(op="lookup", key=13, last=1))


#: One value of each JSON kind, for the meta-blob refusals.
JSON_KINDS = [None, True, False, -1, 2**64 + 1, 2.5, "", "x", [], [1], {}]


class TestDamagedNodes:
    """A damaged node file is a :class:`StoreError` from every reader,
    never a bare zip, EOF, key or attribute error."""

    @pytest.fixture
    def leaf(self, tmp_path):
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("v", {0: recs({5: 9, 6: 2})})
        return store, store._node_path("v", 0, 0)

    @staticmethod
    def rewrite(path, **replaced) -> None:
        """Rewrite a node file with some of its npz members replaced."""
        with np.load(path) as npz:
            members = {name: npz[name] for name in npz.files}
        members.update(replaced)
        buffer = io.BytesIO()
        np.savez(buffer, **members)
        path.write_bytes(buffer.getvalue())

    @classmethod
    def with_meta(cls, path, meta) -> None:
        """Rewrite a node file with ``meta`` as its JSON meta blob."""
        cls.rewrite(
            path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        )

    @staticmethod
    def refused(store) -> None:
        with pytest.raises(StoreError):
            store.nodes("v", 0)
        with pytest.raises(StoreError):
            store.load_node("v", 0, 0)

    def test_every_proper_prefix_refused(self, leaf):
        store, path = leaf
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            self.refused(store)

    @pytest.mark.parametrize("meta", JSON_KINDS, ids=repr)
    def test_meta_blob_of_each_json_kind_refused(self, leaf, meta):
        store, path = leaf
        self.with_meta(path, meta)
        self.refused(store)

    @pytest.mark.parametrize(
        "field", ["schema", "windows", "degraded_windows", "count", "packets"]
    )
    @pytest.mark.parametrize("value", JSON_KINDS, ids=repr)
    def test_meta_field_refused_or_read_exactly(self, leaf, field, value):
        store, path = leaf
        with np.load(path) as npz:
            meta = json.loads(npz["meta"].tobytes())
        meta[field] = value
        self.with_meta(path, meta)
        try:
            [ref] = store.nodes("v", 0)
            summary = store.load_node("v", 0, 0)
        except StoreError:
            return
        # Only schema 1 opens; a window list or a count reads as written.
        assert field != "schema"
        read = getattr(ref, field)
        if isinstance(value, list):
            assert read == tuple(value)
            assert all(type(w) is int and w >= 0 for w in read)
        else:
            assert type(read) is int and read == value >= 0
        assert summary.degraded_windows == ref.degraded_windows

    def test_missing_meta_field_refused(self, leaf):
        store, path = leaf
        with np.load(path) as npz:
            meta = json.loads(npz["meta"].tobytes())
        del meta["windows"]
        self.with_meta(path, meta)
        self.refused(store)

    #: Column damage a valid zip and a valid meta blob can carry, as a
    #: function of the leaf's columns (keys 5 and 6, hi 0) to the
    #: members that replace them.
    BROKEN_COLUMNS = {
        "reversed-rows": lambda c: {n: col[::-1] for n, col in c.items()},
        "duplicated-row": lambda c: {n: col[[0, 0]] for n, col in c.items()},
        "float-keys": lambda c: {"lo": c["lo"].astype(np.float64)},
        "2-d-column": lambda c: {"packets": c["packets"].reshape(-1, 1)},
        "length-mismatch": lambda c: {"octets": c["octets"][:1]},
        "41-bit-hi": lambda c: {"hi": np.array([0, 1 << 40], dtype=np.uint64)},
        "count-mismatch": lambda c: {
            n: np.append(col, col[-1] + col.dtype.type(1)) for n, col in c.items()
        },
        "negative-packets": lambda c: {"packets": -c["packets"]},
        "octets-below-unmeasured": lambda c: {"octets": c["octets"] - 10**6},
    }

    @classmethod
    def break_columns(cls, path, damage) -> None:
        with np.load(path) as npz:
            columns = {n: npz[n] for n in ("lo", "hi", "packets", "octets")}
        cls.rewrite(path, **cls.BROKEN_COLUMNS[damage](columns))

    @pytest.mark.parametrize("damage", sorted(BROKEN_COLUMNS))
    def test_columns_breaking_summary_invariants_refused(self, leaf, damage):
        from repro.flowdb.store import _read_node

        store, path = leaf
        self.break_columns(path, damage)
        with pytest.raises(StoreError):
            _read_node(path, arrays=True)
        with pytest.raises(StoreError):
            store.load_node("v", 0, 0)

    @pytest.mark.parametrize("action", [["lookup", "--key", "5"], ["topk"]], ids=str)
    @pytest.mark.parametrize("damage", sorted(BROKEN_COLUMNS))
    def test_query_on_broken_columns_exits_1(self, leaf, damage, action, capsys):
        from repro.experiments.cli import main

        store, path = leaf
        self.break_columns(path, damage)
        assert main(["query", *action, "--store", str(store.root)]) == 1
        err = capsys.readouterr().err
        assert "query failed: store node" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("action", ["topk", "ls"])
    def test_query_on_damaged_store_exits_1(self, leaf, action, capsys):
        from repro.experiments.cli import main

        store, path = leaf
        path.write_bytes(path.read_bytes()[:-40])
        assert main(["query", action, "--store", str(store.root)]) == 1
        err = capsys.readouterr().err
        assert "query failed: unreadable store node" in err
        assert "Traceback" not in err


class TestFlowStoreSink:
    def test_sink_lands_rotations_with_degraded_flags(self, tmp_path):
        sink = FlowStoreSink(root=str(tmp_path / "s"), vantage="live")
        sink.emit(recs({1: 3}), 0, 0.0)
        sink.emit(recs({1: 2, 2: 1}), 1, 1.0)
        sink.flag_degraded(1)
        sink.close()
        store = FlowStore(tmp_path / "s")
        summary = store.summarize("live", [0, 1])
        assert summary.counts() == {1: 5, 2: 1}
        assert summary.degraded_windows == (1,)

    def test_successive_runs_append(self, tmp_path):
        for _ in range(2):
            sink = FlowStoreSink(root=str(tmp_path / "s"), vantage="live")
            sink.emit(recs({1: 1}), 0, 0.0)
            sink.close()
        assert FlowStore(tmp_path / "s").leaf_windows("live") == [0, 1]

    def test_abort_stores_nothing(self, tmp_path):
        sink = FlowStoreSink(root=str(tmp_path / "s"), vantage="live")
        sink.emit(recs({1: 1}), 0, 0.0)
        sink.abort()
        assert not (tmp_path / "s").exists()

    def test_registered_and_spec_round_trips(self):
        from repro.stream.sinks import build_sink

        sink = build_sink(
            {"kind": "store", "params": {"root": "/tmp/x", "vantage": "v"}}
        )
        assert isinstance(sink, FlowStoreSink)
        assert sink.spec == {
            "kind": "store",
            "params": {"root": "/tmp/x", "vantage": "v", "merge": True},
        }

    def test_pipeline_attaches_store_sink(self, tmp_path):
        from repro.stream import Pipeline

        pipeline = Pipeline(
            source={"kind": "synthetic",
                    "params": {"profile": "caida", "n_flows": 500, "seed": 3}},
            collector="exact",
            rotation={"kind": "count", "params": {"epoch_packets": 400}},
            sinks=[{"kind": "store",
                    "params": {"root": str(tmp_path / "s"), "vantage": "v"}},
                   {"kind": "archive"}],
        )
        result = pipeline.run()
        archive = pipeline.sinks[1]
        store = FlowStore(tmp_path / "s")
        merged = store.summarize("v", store.leaf_windows("v")).counts()
        assert merged == archive.merged()


class TestQueryCLI:
    def _ingest(self, tmp_path, cli_main):
        from repro.stream.sinks import NetFlowV5Sink

        directory = tmp_path / "arch"
        sink = NetFlowV5Sink(directory=str(directory))
        sink.emit(recs({5: 9, 6: 2}), 0, 0.0)
        sink.emit(recs({5: 1}), 1, 1.0)
        sink.close()
        assert cli_main([
            "query", "ingest", "--store", str(tmp_path / "s"),
            "--vantage", "edge", "--archive", str(directory),
        ]) == 0
        assert cli_main([
            "query", "merge", "--store", str(tmp_path / "s"),
        ]) == 0

    def test_ingest_topk_lookup_ls(self, tmp_path, capsys):
        from repro.experiments.cli import main

        self._ingest(tmp_path, main)
        assert main([
            "query", "topk", "--store", str(tmp_path / "s"), "-k", "2", "--json",
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert [(r["key"], r["packets"]) for r in out["results"]] == [(5, 10), (6, 2)]
        assert main([
            "query", "lookup", "--store", str(tmp_path / "s"),
            "--key", "5", "--json",
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (out["found"], out["packets"]) == (True, 10)
        assert main(["query", "ls", "--store", str(tmp_path / "s")]) == 0
        assert "edge" in capsys.readouterr().out

    def test_lookup_accepts_tuple_text(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.flow.key import pack_key, parse_ip

        key = pack_key(parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), 1234, 80, 6)
        store = FlowStore(tmp_path / "s")
        store.ingest_rotations("v", {0: recs({key: 42})})
        assert main([
            "query", "lookup", "--store", str(tmp_path / "s"),
            "--key", "10.0.0.1:1234-10.0.0.2:80/6", "--json",
        ]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["packets"] == 42

    def test_query_failure_exits_nonzero(self, tmp_path, capsys):
        from repro.experiments.cli import main

        self._ingest(tmp_path, main)
        assert main([
            "query", "topk", "--store", str(tmp_path / "s"),
            "--vantage", "nope",
        ]) == 1
