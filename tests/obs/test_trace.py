"""Tests for trace-ID minting and binding (repro.obs.trace)."""

from __future__ import annotations

import re
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.trace import (
    bind,
    current_trace_id,
    new_trace_id,
    normalize_trace_id,
)


class TestMinting:
    def test_minted_ids_are_16_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(re.fullmatch(r"[0-9a-f]{16}", t) for t in ids)

    def test_normalize_accepts_common_shapes(self):
        for value in ("abcd", "a" * 64, "req.1-2_3", new_trace_id()):
            assert normalize_trace_id(value) == value

    @pytest.mark.parametrize(
        "bad", ["abc", "a" * 65, "has space", "semi;colon", "", None, 7]
    )
    def test_normalize_rejects_unusable_values(self, bad):
        with pytest.raises(ConfigurationError):
            normalize_trace_id(bad)


class TestBinding:
    def test_bind_scopes_the_current_trace(self):
        assert current_trace_id() is None
        with bind("trace-1234"):
            assert current_trace_id() == "trace-1234"
            with bind("trace-5678"):
                assert current_trace_id() == "trace-5678"
            assert current_trace_id() == "trace-1234"
        assert current_trace_id() is None

    def test_bind_is_per_thread(self):
        seen = {}

        def worker(name: str) -> None:
            with bind(name):
                seen[name] = current_trace_id()

        threads = [
            threading.Thread(target=worker, args=(f"trace-{i:04d}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {f"trace-{i:04d}": f"trace-{i:04d}" for i in range(4)}
