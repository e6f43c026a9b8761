"""Round-trip and query-surface tests for the run-history index.

The contract under test (docs/observability.md): ingest is
content-detected and deduplicating, stored artifacts round-trip
value-identical through ``load_artifact``, the index itself follows the
ledger's durability conventions (append order kept, torn tail
forgiven), and the query surface filters by kind / series / commit
prefix / host key.
"""

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.obs import INDEX_SCHEMA, RunHistory
from repro.obs.ledger import make_entry


def _report(ios=3128, n=8000):
    return {
        "schema": "repro.run_report/1",
        "command": "sort",
        "result": {"records": n, "parallel_ios": ios, "ratio": 1.61,
                   "verified": True},
        "phases": [
            {"name": "partition", "wall_s": 0.012, "read_ios": 378,
             "write_ios": 378},
            {"name": "distribute", "wall_s": 0.074, "read_ios": 924,
             "write_ios": 924},
        ],
        "host": {"key": "h" * 12, "system": "Linux", "machine": "x86_64",
                 "python": "3.12.1", "usable_cores": 4, "platform": "x"},
    }


def _trace_lines():
    return [
        {"ev": "begin", "span": 1, "name": "sort", "parent": None, "ts": 0.0},
        {"ev": "begin", "span": 2, "name": "distribute", "parent": 1,
         "ts": 0.1, "attrs": {"level": 0}},
        {"ev": "event", "span": 2, "name": "io.read", "ts": 0.2,
         "attrs": {"width": 4}},
        {"ev": "end", "span": 2, "name": "distribute", "parent": 1,
         "ts": 0.5, "wall_s": 0.4},
        {"ev": "end", "span": 1, "name": "sort", "parent": None,
         "ts": 0.6, "wall_s": 0.6},
    ]


class TestIngestDoc:
    def test_index_record_shape(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        record = history.ingest_doc(_report(), source="r.json",
                                    commit="abc1234", series="s1")
        assert record["schema"] == INDEX_SCHEMA
        assert record["kind"] == "report"
        assert record["schema_of"] == "repro.run_report/1"
        assert record["id"].startswith("report-")
        assert record["commit"] == "abc1234"
        assert record["series"] == "s1"
        assert record["host_key"] == "h" * 12
        assert record["artifact"] == f"runs/{record['id']}.json"
        assert record["summary"]["parallel_ios"] == 3128

    def test_round_trip_is_value_identical(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        doc = _report()
        record = history.ingest_doc(doc)
        assert history.load_artifact(record) == doc

    def test_dedup_by_content(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        first = history.ingest_doc(_report())
        again = history.ingest_doc(_report())
        assert again["duplicate"] is True
        assert again["id"] == first["id"]
        assert len(history.read()) == 1
        # A different doc is a different id.
        other = history.ingest_doc(_report(ios=9999))
        assert other["id"] != first["id"]
        assert len(history.read()) == 2

    def test_unknown_schema_refused(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        with pytest.raises(ValueError, match="unrecognized artifact schema"):
            history.ingest_doc({"schema": "repro.nonsense/9"})
        with pytest.raises(ValueError, match="unrecognized artifact schema"):
            history.ingest_doc({"no_schema": True})

    def test_require_version_gates_bench_points(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        bench = {"schema": "repro.bench_point/1", "name": "x"}
        with pytest.raises(ValueError, match="repro_version"):
            history.ingest_doc(bench, require_version=True)
        stamped = {**bench, "repro_version": __version__}
        record = history.ingest_doc(stamped, require_version=True)
        assert record["kind"] == "bench"
        assert record["summary"]["repro_version"] == __version__
        # Non-bench kinds are not subject to the stamp requirement.
        history.ingest_doc(_report(), require_version=True)

    @settings(max_examples=25, deadline=None)
    @given(
        seconds=st.floats(min_value=0.001, max_value=1e4),
        records=st.integers(min_value=1, max_value=10**9),
        series=st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1, max_size=12,
        ),
    )
    def test_ledger_point_round_trip_property(self, tmp_path_factory,
                                              seconds, records, series):
        root = tmp_path_factory.mktemp("hist")
        history = RunHistory(str(root))
        host = {"key": "k" * 12, "system": "Linux", "machine": "x86_64",
                "python": "3.12.1", "usable_cores": 4, "platform": "x"}
        entry = make_entry(series, seconds, records, grid="g", cells=1,
                           host=host, when=1000.0)
        record = history.ingest_doc(entry)
        assert record["kind"] == "ledger"
        assert record["series"] == series
        assert history.load_artifact(record) == entry
        assert record["summary"]["seconds"] == entry["seconds"]


class TestIngestPath:
    def test_single_doc_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(_report(), indent=2))
        history = RunHistory(str(tmp_path / "h"))
        records = history.ingest_path(str(path))
        assert len(records) == 1
        assert records[0]["kind"] == "report"
        assert records[0]["source"] == str(path)
        assert history.load_artifact(records[0]) == _report()

    def test_ledger_jsonl_ingests_every_point(self, tmp_path):
        host = {"key": "k" * 12, "system": "Linux", "machine": "x86_64",
                "python": "3.12.1", "usable_cores": 4, "platform": "x"}
        entries = [
            make_entry("e1", 1.0 + i, 1000, grid="g", cells=1, host=host,
                       when=1000.0 + i)
            for i in range(3)
        ]
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in entries)
        )
        history = RunHistory(str(tmp_path / "h"))
        records = history.ingest_path(str(path))
        assert [r["kind"] for r in records] == ["ledger"] * 3
        assert [history.load_artifact(r) for r in records] == entries

    def test_trace_is_profiled_on_ingest(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        with gzip.open(path, "wt") as fh:
            for line in _trace_lines():
                fh.write(json.dumps(line) + "\n")
        history = RunHistory(str(tmp_path / "h"))
        records = history.ingest_path(str(path))
        assert len(records) == 1
        assert records[0]["kind"] == "profile"
        profile = history.load_artifact(records[0])
        assert profile["schema"] == "repro.profile/1"
        assert profile["io"]["rounds"]["total"] == 1

    def test_empty_file_refused(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        history = RunHistory(str(tmp_path / "h"))
        with pytest.raises(ValueError, match="empty artifact"):
            history.ingest_path(str(path))

    def test_config_env_and_explicit_merge(self, tmp_path, monkeypatch):
        # The snapshot reads the ambient environment, so clear every
        # captured knob first — the suite may legitimately run under
        # e.g. REPRO_PDM_STORE=dict.
        from repro.obs.history import _CONFIG_ENV

        for env_name, _ in _CONFIG_ENV:
            monkeypatch.delenv(env_name, raising=False)
        monkeypatch.setenv("REPRO_PDM_STORE", "dict")
        history = RunHistory(str(tmp_path / "h"))
        record = history.ingest_doc(_report(), config={"extra": "1"})
        assert record["config"] == {"pdm_store": "dict", "extra": "1"}


class TestQuery:
    def _seed(self, tmp_path):
        history = RunHistory(str(tmp_path / "h"))
        history.ingest_doc(_report(ios=1), commit="aaaa1111deadbeef",
                           series="s1", when=1.0)
        history.ingest_doc(_report(ios=2), commit="bbbb2222deadbeef",
                           series="s1", when=2.0)
        history.ingest_doc(_report(ios=3), commit="bbbb2222deadbeef",
                           series="s2", when=3.0)
        return history

    def test_filters(self, tmp_path):
        history = self._seed(tmp_path)
        assert len(history.records()) == 3
        assert len(history.records(series="s1")) == 2
        assert len(history.records(commit="bbbb")) == 2
        # Prefix matching works both directions (short queries long).
        assert len(history.records(commit="aaaa1111deadbeefcafe")) == 1
        assert len(history.records(host_key="h" * 12)) == 3
        assert len(history.records(host_key="nope")) == 0
        newest = history.records(limit=1)
        assert len(newest) == 1
        assert newest[0]["summary"]["parallel_ios"] == 3

    def test_get_by_prefix_and_ambiguity(self, tmp_path):
        history = self._seed(tmp_path)
        full_id = history.records(limit=1)[0]["id"]
        assert history.get(full_id)["id"] == full_id
        assert history.get(full_id[:10])["id"] == full_id
        with pytest.raises(KeyError, match="ambiguous|no indexed run"):
            history.get("report-")  # matches all three (or none)
        with pytest.raises(KeyError, match="no indexed run"):
            history.get("zzz")

    def test_torn_tail_forgiven(self, tmp_path):
        history = self._seed(tmp_path)
        with open(history.index_path, "a") as fh:
            fh.write('{"schema": "repro.run_ind')  # torn final line
        assert len(history.read()) == 3

    def test_stats(self, tmp_path):
        history = self._seed(tmp_path)
        stats = history.stats
        assert stats["records"] == 3
        assert stats["kinds"] == {"report": 3}
        assert stats["repro_version"] == __version__
