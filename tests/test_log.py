"""The shared JSONL log primitive (``repro.runtime.log``) and the crash
consistency of the four stores built on it: tuner checkpoints, the
EvalCache, the RecordBook and the serve job log."""

import os
import warnings

import numpy as np
import pytest

from repro.explore.network import encode_array
from repro.runtime import EvalCache, RecordBook, TuningRecord, load_checkpoint, save_checkpoint
from repro.runtime.log import JsonlLog
from repro.schedule import NodeConfig
from repro.serve import Job, JobState, JobStore


def store_log(path):
    return JsonlLog(path, "skipping {reason} test line at {path}:{lineno}")


class TestAppendAndSync:
    def record_fsyncs(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return calls

    def test_durable_append_fsyncs_before_returning(self, tmp_path, monkeypatch):
        calls = self.record_fsyncs(monkeypatch)
        log = store_log(tmp_path / "a.jsonl")
        log.append({"i": 1})
        assert len(calls) == 1
        log.sync()                       # nothing left to make durable
        assert len(calls) == 1
        assert log.path.read_text() == '{"i": 1}\n'

    def test_group_commit_fsyncs_once_per_sync(self, tmp_path, monkeypatch):
        calls = self.record_fsyncs(monkeypatch)
        log = store_log(tmp_path / "a.jsonl")
        for i in range(3):
            log.append({"i": i}, durable=False)
        assert calls == []
        log.sync()
        log.sync()
        assert len(calls) == 1
        assert [p["i"] for _, p in log.objects()] == [0, 1, 2]

    def test_rewrite_replaces_whole_file_and_leaves_no_staging(self, tmp_path):
        log = store_log(tmp_path / "a.jsonl")
        log.append({"i": 0})
        log.rewrite(['{"i": 1}', '{"i": 2}'])
        assert log.path.read_text() == '{"i": 1}\n{"i": 2}\n'
        assert not (tmp_path / "a.jsonl.tmp").exists()

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        log = store_log(tmp_path / "a.jsonl")
        log.append({"i": 0})

        def crash(src, dst):
            raise OSError("killed before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            log.rewrite(['{"i": 1}'])
        assert log.path.read_text() == '{"i": 0}\n'


class TestTolerantReading:
    def write_mixed(self, path):
        path.write_bytes(
            b'{"i": 0}\n'
            b"\n"
            b"{torn\n"
            b"[1, 2]\n"
            b"\xff\xfe\x80\n"
            b'  {"i": 5}  \n'
        )

    def test_bad_lines_skipped_with_the_store_warning(self, tmp_path):
        path = tmp_path / "a.jsonl"
        self.write_mixed(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = list(store_log(path).objects())
        assert found == [(1, {"i": 0}), (6, {"i": 5})]
        assert [str(w.message) for w in caught] == [
            f"skipping corrupt test line at {path}:3",
            f"skipping non-object test line at {path}:4",
            f"skipping corrupt test line at {path}:5",
        ]

    def test_newest_first_parses_only_what_it_reaches(self, tmp_path):
        path = tmp_path / "a.jsonl"
        self.write_mixed(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            newest = next(store_log(path).objects(newest_first=True))
        assert newest == (6, {"i": 5})
        assert caught == []

    def test_missing_file_reads_empty(self, tmp_path):
        assert list(store_log(tmp_path / "none.jsonl").objects()) == []


# -- crash enumeration: every byte offset inside each store's last record --

CONFIG = NodeConfig(spatial_factors=((1,),), reduce_factors=())


def build_eval_cache(tmp_path):
    cache = EvalCache(tmp_path)
    for i in range(3):
        cache.put("sig", (i, i + 1), float(i) + 0.25, "ok")
    cache.put("sig", (7, 1), 0.0, "compile_error")
    return cache.path


def eval_cache_state(path):
    cache = EvalCache(path.parent)
    keys = [("sig", (i, i + 1)) for i in range(3)] + [("sig", (7, 1))]
    return len(cache), [cache.get(*key) for key in keys]


def build_record_book(tmp_path):
    book = RecordBook(tmp_path / "records.jsonl")
    book.add(TuningRecord(key="k1", config=CONFIG, gflops=1.0, signature="s"))
    book.add(TuningRecord(key="k2", config=CONFIG, gflops=4.0, trials=9))
    book.add_metrics({"key": "k2", "points": 12})
    book.add(TuningRecord(key="k1", config=CONFIG, gflops=2.5, seed=3, signature="s"))
    return book.path


def record_book_state(path):
    book = RecordBook(path)
    best = {key: book.best(key).to_json() for key in book.keys()}
    by_sig = {sig: book.best_for_signature(sig).to_json() for sig in book.signatures()}
    return best, by_sig


def build_job_store(tmp_path):
    store = JobStore(tmp_path)
    first = Job(job_id=store.new_job_id("t"), tenant="t", operator="gemm",
                params={"n": 8, "k": 8, "m": 8}, device="V100", trials=4)
    store.submit(first, clock=0.0)
    store.transition(first, JobState.ADMITTED, clock=0.5)
    store.transition(first, JobState.RUNNING, clock=1.0)
    store.note("drain", clock=1.5)
    second = Job(job_id=store.new_job_id("u"), tenant="u", operator="gemm",
                 params={"n": 16, "k": 8, "m": 8}, device="V100", trials=2)
    store.submit(second, clock=2.0)
    return store.path


def job_store_state(path):
    store = JobStore(path.parent)
    jobs = {job_id: job.to_dict() for job_id, job in store.jobs.items()}
    return jobs, store.clock, store.next_seq


def build_checkpoint(tmp_path):
    path = tmp_path / "run.ckpt"
    for trial in range(1, 5):
        save_checkpoint(path, {
            "tuner": "q",
            "trial": trial,
            "state": {
                "evaluated": [[[trial, 1], 0.5 * trial]],
                "agent": {"w": encode_array(np.arange(4.0) * trial)},
            },
        })
    return path


STORES = {
    "checkpoint": (build_checkpoint, load_checkpoint),
    "eval_cache": (build_eval_cache, eval_cache_state),
    "record_book": (build_record_book, record_book_state),
    "job_store": (build_job_store, job_store_state),
}


@pytest.mark.parametrize("store", sorted(STORES))
def test_truncation_inside_last_record_recovers_before_or_after(tmp_path, store):
    build, state = STORES[store]
    path = build(tmp_path)
    data = path.read_bytes()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path.write_bytes(data[:start])
        before = state(path)
        path.write_bytes(data)
        after = state(path)
        assert before != after
        # Every cut from "record absent" to "record present but its
        # trailing newline lost", one byte at a time.
        for cut in range(start, len(data)):
            path.write_bytes(data[:cut])
            recovered = state(path)
            assert recovered in (before, after), cut
            if cut < len(data) - 1:
                assert recovered == before, cut
        assert recovered == after
