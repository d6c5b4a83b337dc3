"""repro.results.appendlog: the one crash-safe line log.

Run files (``JsonlSink``) and the job queue (``JobStore``) are both
this log; what a crash can leave in one, and how the next writer
continues it, is tested here once.  The consumer-level crash tests in
``test_results.py`` / ``test_jobs.py`` cover what each consumer builds
on top (header checks, corruption policy, the whole-trial unit).
"""

from __future__ import annotations

import os

import pytest

from repro.results import appendlog


def write_lines(path, *records, fsync=False):
    """Append ``records`` after whatever a scan finds intact."""
    _, end, _ = appendlog.scan(path)
    with appendlog.open_at(path, end) as handle:
        for record in records:
            appendlog.append(
                handle, appendlog.encode_line(record), fsync=fsync)


class TestEncoding:
    def test_canonical_bytes(self):
        assert appendlog.encode_line({"b": 1, "a": [1, 2], "c": "é"}) == (
            b'{"a":[1,2],"b":1,"c":"\\u00e9"}\n'
        )

    def test_key_order_does_not_matter(self):
        assert appendlog.encode_line({"x": 1, "y": 2}) == (
            appendlog.encode_line({"y": 2, "x": 1})
        )


class TestScan:
    def test_missing_file(self, tmp_path):
        assert appendlog.scan(tmp_path / "absent.jsonl") == ([], 0, False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"")
        assert appendlog.scan(path) == ([], 0, False)

    def test_unterminated_header_is_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"kind":"half a hea')
        assert appendlog.scan(path) == ([], 0, True)

    def test_unterminated_tail_is_not_a_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"c":')
        assert appendlog.scan(path) == (
            [b'{"a":1}', b'{"b":2}'], 16, True)

    def test_terminated_tail_is_a_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n')
        assert appendlog.scan(path) == (
            [b'{"a":1}', b'{"b":2}'], 16, False)

    def test_blank_and_garbage_lines_are_returned_as_is(self, tmp_path):
        # Meaning is the consumer's business; the log only frames.
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"\nnot json\n")
        assert appendlog.scan(path) == ([b"", b"not json"], 10, False)


class TestAppend:
    def test_first_append_creates_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "er" / "log.jsonl"
        write_lines(path, {"a": 1})
        assert path.read_bytes() == b'{"a":1}\n'

    def test_append_after_torn_tail_never_fuses_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":')
        write_lines(path, {"c": 3})
        assert path.read_bytes() == b'{"a":1}\n{"c":3}\n'
        assert appendlog.scan(path) == (
            [b'{"a":1}', b'{"c":3}'], 16, False)

    def test_append_after_torn_header_starts_afresh(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"kind":"half a hea')
        write_lines(path, {"a": 1})
        assert path.read_bytes() == b'{"a":1}\n'

    def test_open_at_cuts_complete_lines_past_the_offset(self, tmp_path):
        # The caller's durable unit may be coarser than a line.
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"c":3}\n')
        with appendlog.open_at(path, 8) as handle:
            appendlog.append(handle, appendlog.encode_line({"d": 4}))
        assert path.read_bytes() == b'{"a":1}\n{"d":4}\n'

    def test_open_at_the_end_does_not_touch_the_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n')
        os.utime(path, ns=(10**18, 10**18))
        appendlog.open_at(path, 8).close()
        stat = path.stat()
        assert (stat.st_size, stat.st_mtime_ns) == (8, 10**18)

    def test_every_append_is_flushed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with appendlog.open_at(path, 0) as handle:
            appendlog.append(handle, appendlog.encode_line({"a": 1}))
            assert path.read_bytes() == b'{"a":1}\n'  # before close

    @pytest.mark.parametrize("fsync", [False, True])
    def test_fsync_is_per_append_and_only_on_request(
        self, tmp_path, monkeypatch, fsync
    ):
        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real(fd)))
        write_lines(tmp_path / "log.jsonl", {"a": 1}, {"b": 2}, fsync=fsync)
        assert len(synced) == (2 if fsync else 0)

    def test_sync_forces_what_was_appended(self, tmp_path, monkeypatch):
        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real(fd)))
        with appendlog.open_at(tmp_path / "log.jsonl", 0) as handle:
            appendlog.append(handle, appendlog.encode_line({"a": 1}))
            assert synced == []
            appendlog.sync(handle)
            assert synced == [handle.fileno()]


class TestOpenShared:
    """The queue's way in: several processes append to one log."""

    def test_new_log_creates_directory_and_reports_empty(self, tmp_path):
        path = tmp_path / "deep" / "log.jsonl"
        with appendlog.open_shared(path) as handle:
            assert handle.tell() == 0
            appendlog.append(handle, appendlog.encode_line({"a": 1}))
        assert path.read_bytes() == b'{"a":1}\n'

    def test_existing_log_is_continued_and_reports_its_end(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n')
        with appendlog.open_shared(path) as handle:
            assert handle.tell() == 8
            appendlog.append(handle, appendlog.encode_line({"b": 2}))
        assert path.read_bytes() == b'{"a":1}\n{"b":2}\n'

    def test_torn_tail_is_cut_so_lines_never_fuse(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":')
        with appendlog.open_shared(path) as handle:
            assert handle.tell() == 8
            appendlog.append(handle, appendlog.encode_line({"c": 3}))
        assert path.read_bytes() == b'{"a":1}\n{"c":3}\n'

    def test_torn_header_reports_empty(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"kind":"half a hea')
        with appendlog.open_shared(path) as handle:
            assert handle.tell() == 0
            appendlog.append(handle, appendlog.encode_line({"a": 1}))
        assert path.read_bytes() == b'{"a":1}\n'

    def test_a_peers_line_written_after_we_opened_is_kept(self, tmp_path):
        # O_APPEND: our write lands after the peer's, wherever our
        # handle thought the end was.
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n')
        with appendlog.open_shared(path) as ours:
            with appendlog.open_shared(path) as peer:
                appendlog.append(peer, appendlog.encode_line({"peer": 1}))
            appendlog.append(ours, appendlog.encode_line({"ours": 1}))
        assert path.read_bytes() == b'{"a":1}\n{"peer":1}\n{"ours":1}\n'

    def test_a_terminated_log_is_not_touched_by_opening(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n')
        os.utime(path, ns=(10**18, 10**18))
        appendlog.open_shared(path).close()
        stat = path.stat()
        assert (stat.st_size, stat.st_mtime_ns) == (8, 10**18)
