import json

import pytest

from autoscore.backend import (
    BackendUnavailable,
    CachingBackend,
    ChatRequest,
    ChatResponse,
    RateLimited,
    RemoteBackend,
    ReplayMiss,
    ScriptedBackend,
    ScriptExhausted,
    Transport,
    request_digest,
)


def _req(**overrides):
    base = dict(
        model_name="m1",
        messages=(("system", "sys"), ("user", "hello")),
        temperature=0.0,
        max_output_tokens=64,
        force_json=False,
    )
    base.update(overrides)
    return ChatRequest(**base)


class TestRequestDigest:
    def test_equal_requests_equal_digests(self):
        assert request_digest(_req()) == request_digest(_req())

    def test_temperature_changes_digest(self):
        assert request_digest(_req()) != request_digest(_req(temperature=0.5))

    def test_message_order_is_semantic(self):
        swapped = _req(messages=(("user", "hello"), ("system", "sys")))
        assert request_digest(_req()) != request_digest(swapped)

    def test_model_name_changes_digest(self):
        assert request_digest(_req()) != request_digest(_req(model_name="m2"))

    def test_digest_is_stable_across_processes(self):
        # frozen value pins the canonical serialization; if this changes,
        # every recorded replay fixture and cache file is invalidated
        assert request_digest(_req()).digest == (
            "012fbdabdf7c1c73493b5c03c60815c161708d9755357f6b26ac5572784fe8ef"
        )


class TestChatRequestInvariants:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            _req(messages=())

    def test_temperature_bounds(self):
        with pytest.raises(ValueError):
            _req(temperature=2.5)

    def test_role_whitelist(self):
        with pytest.raises(ValueError):
            _req(messages=(("assistant", "hi"),))


def test_chat_response_zero_latency_only_from_cache():
    ChatResponse("ok", 0, from_cache=True)
    with pytest.raises(ValueError):
        ChatResponse("ok", 0, from_cache=False)


class TestReplayBackend:
    def test_replays_recorded_text(self, tmp_path):
        request = _req()
        digest = request_digest(request).digest
        fixture = tmp_path / "fixture.jsonl"
        fixture.write_text(
            json.dumps({"digest": digest, "text": "ok", "latency_ms": 250}) + "\n"
        )
        backend = CachingBackend(None, fixture, "m1")
        response = backend.complete(request)
        assert (response.text, response.latency_ms, response.from_cache) == (
            "ok", 250, False,
        )

    def test_unknown_digest_is_a_miss(self, tmp_path):
        fixture = tmp_path / "fixture.jsonl"
        fixture.write_text(json.dumps({"digest": "deadbeef", "text": "x"}) + "\n")
        backend = CachingBackend(None, fixture, "m1")
        with pytest.raises(ReplayMiss):
            backend.complete(_req())

    def test_bit_deterministic_across_repetitions(self, tmp_path):
        request = _req()
        fixture = tmp_path / "fixture.jsonl"
        fixture.write_text(
            json.dumps({"digest": request_digest(request).digest, "text": "same"})
            + "\n"
        )
        backend = CachingBackend(None, fixture, "m1")
        texts = {backend.complete(request).text for _ in range(20)}
        assert texts == {"same"}

    def test_missing_fixture_file_is_fatal(self, tmp_path):
        with pytest.raises(BackendUnavailable):
            CachingBackend(None, tmp_path / "nope.jsonl")


class TestScriptedBackend:
    def test_queue_mode_pops_in_order(self):
        backend = ScriptedBackend(responses=["a", "b"])
        assert backend.complete(_req()).text == "a"
        assert backend.complete(_req()).text == "b"
        with pytest.raises(ScriptExhausted):
            backend.complete(_req())
        assert backend.call_count == 3

    def test_rules_mode_first_match_wins(self):
        backend = ScriptedBackend(
            rules=[
                {"match": ["hello", "sys"], "text": "both"},
                {"match": "hello", "text": "one"},
            ]
        )
        assert backend.complete(_req()).text == "both"

    def test_rules_mode_no_match(self):
        backend = ScriptedBackend(rules=[{"match": "absent", "text": "x"}])
        with pytest.raises(ScriptExhausted):
            backend.complete(_req())

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            ScriptedBackend(responses=["a"], rules=[])
        with pytest.raises(ValueError):
            ScriptedBackend()


class _FakeTransport:
    """Plays back a scripted list of (status, body) results and counts calls."""

    def __init__(self, results):
        self.results = list(results)
        self.calls = 0

    def __call__(self, url, headers, body, timeout_s):
        self.calls += 1
        return self.results.pop(0)


def _ok_body(text="fine"):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def _remote(transport, sleeps=None):
    return RemoteBackend(
        base_url="https://api.example/v1",
        model_name="m1",
        api_key="k",
        transport=transport,
        sleeper=(sleeps.append if sleeps is not None else lambda s: None),
    )


class TestRemoteRetryPolicy:
    def test_success_first_try(self):
        transport = _FakeTransport([(200, _ok_body())])
        response = _remote(transport).complete(_req())
        assert response.text == "fine"
        assert transport.calls == 1
        assert response.latency_ms >= 1 and not response.from_cache

    def test_429_backs_off_then_succeeds(self):
        sleeps = []
        transport = _FakeTransport(
            [(429, "slow down"), (429, "slow down"), (200, _ok_body())]
        )
        response = _remote(transport, sleeps).complete(_req())
        assert response.text == "fine"
        assert transport.calls == 3
        assert sleeps == [1.0, 2.0]

    def test_429_exhaustion_surfaces_rate_limited(self):
        sleeps = []
        transport = _FakeTransport([(429, "no")] * 5)
        with pytest.raises(RateLimited):
            _remote(transport, sleeps).complete(_req())
        assert transport.calls == 5
        assert sleeps == [1.0, 2.0, 4.0, 8.0]

    def test_5xx_is_retried(self):
        transport = _FakeTransport([(500, "boom"), (200, _ok_body())])
        assert _remote(transport).complete(_req()).text == "fine"
        assert transport.calls == 2

    def test_connection_failure_is_retried(self):
        transport = _FakeTransport([(0, "connection failure"), (200, _ok_body())])
        assert _remote(transport).complete(_req()).text == "fine"
        assert transport.calls == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_other_4xx_never_retried(self, status):
        transport = _FakeTransport([(status, "bad request")] * 5)
        with pytest.raises(Transport) as excinfo:
            _remote(transport).complete(_req())
        assert transport.calls == 1
        assert excinfo.value.status == status

    def test_malformed_body_is_transport_error(self):
        transport = _FakeTransport([(200, "not json at all")])
        with pytest.raises(Transport):
            _remote(transport).complete(_req())

    def test_missing_api_key_is_unavailable(self, monkeypatch):
        monkeypatch.delenv("AUTOSCORE_API_KEY", raising=False)
        with pytest.raises(BackendUnavailable):
            RemoteBackend(base_url="https://api.example/v1", model_name="m1")

    def test_in_flight_gate_bounds_concurrency(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        in_flight = 0
        peak = 0
        lock = threading.Lock()

        def slow_transport(url, headers, body, timeout_s):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            import time as _time

            _time.sleep(0.01)
            with lock:
                in_flight -= 1
            return 200, _ok_body()

        backend = RemoteBackend(
            base_url="https://api.example/v1", model_name="m1",
            api_key="k", transport=slow_transport, max_in_flight=2,
        )
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda i: backend.complete(_req()).text, range(8))
            )
        assert results == ["fine"] * 8
        assert peak <= 2

    def test_default_transport_reports_connection_failure(self):
        # port 1 on localhost refuses instantly; no external network touched
        from autoscore.backend import _default_transport

        status, body = _default_transport(
            "http://127.0.0.1:1/chat/completions", {}, {}, timeout_s=1.0
        )
        assert status == 0
        assert "connection failure" in body

    def test_force_json_sets_response_format(self):
        seen = {}

        def transport(url, headers, body, timeout_s):
            seen.update(body=body, url=url, headers=headers)
            return 200, _ok_body()

        _remote(transport).complete(_req(force_json=True))
        assert seen["body"]["response_format"] == {"type": "json_object"}
        assert seen["url"].endswith("/chat/completions")
        assert seen["headers"]["Authorization"] == "Bearer k"
        assert seen["body"]["max_tokens"] == 64


class TestCachingBackend:
    def test_second_identical_request_hits_cache(self, tmp_path):
        inner = ScriptedBackend(responses=["once"])
        cached = CachingBackend(inner, tmp_path / "cache.jsonl")
        first = cached.complete(_req())
        second = cached.complete(_req())
        assert first.text == second.text == "once"
        assert not first.from_cache
        assert second.from_cache and second.latency_ms == 0
        assert inner.call_count == 1

    def test_cache_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingBackend(ScriptedBackend(responses=["persisted"]), path).complete(_req())
        exhausted = ScriptedBackend(responses=[])
        reloaded = CachingBackend(exhausted, path)
        assert reloaded.complete(_req()).text == "persisted"
        assert exhausted.call_count == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingBackend(ScriptedBackend(responses=["kept"]), path).complete(_req())
        with path.open("a") as handle:
            handle.write('{"digest": "abc", "te')
        reloaded = CachingBackend(ScriptedBackend(responses=["added"]), path)
        assert reloaded.complete(_req()).text == "kept"
        # the next append starts a line of its own instead of gluing onto
        # the fragment, so a fresh load still serves it
        other = _req(temperature=0.5)
        assert reloaded.complete(other).text == "added"
        idle = ScriptedBackend(responses=[])
        assert CachingBackend(idle, path).complete(other).text == "added"
        assert idle.call_count == 0
        # replay skips a torn tail as well
        with path.open("a") as handle:
            handle.write('{"digest": "abc", "te')
        replay = CachingBackend(None, path, "m1")
        assert replay.complete(other).text == "added"

    def test_cache_file_is_a_valid_replay_fixture(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingBackend(ScriptedBackend(responses=["recorded"]), path).complete(_req())
        replay = CachingBackend(None, path, "m1")
        assert replay.complete(_req()).text == "recorded"

    def test_replay_of_a_cache_file_reports_recorded_latency(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        recorder = CachingBackend(
            ScriptedBackend(responses=["recorded"], latency_ms=250), path
        )
        assert recorder.complete(_req()).latency_ms == 250
        assert recorder.complete(_req()) == ChatResponse("recorded", 0, True)
        replay = CachingBackend(None, path, "m1")
        assert replay.complete(_req()) == ChatResponse("recorded", 250, False)

    def test_corrupt_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingBackend(ScriptedBackend(responses=["kept"]), path).complete(_req())
        with path.open("a") as handle:
            handle.write('{"digest": "abc", "te\n')
        for inner in (ScriptedBackend(responses=[]), None):
            with pytest.raises(BackendUnavailable, match=r"cache.jsonl line 2"):
                CachingBackend(inner, path, "m1")
