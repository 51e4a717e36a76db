"""Chat-completion backends: a remote OpenAI-compatible endpoint and a
scripted mock, plus the digest store, which is a write-through response
cache around either of them or, with no backend inside, deterministic
replay.

All backends expose the same surface: a `model_name` attribute, an
`identity` string recorded in run manifests, and `complete(request)`.
Latency is measured around the network call only; cache hits report zero
latency so timing reports measure inference alone.

`parse_jsonl` is the one line loop over the package's JSONL files: through
`read_jsonl` for the append-only ones (the store, records.jsonl and
failures.jsonl), directly for the hand-written scripted rules and gold
annotations.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .core import AutoscoreError

logger = logging.getLogger(__name__)

API_KEY_ENV = "AUTOSCORE_API_KEY"

T = TypeVar("T")


class BackendUnavailable(AutoscoreError):
    """The backend cannot be constructed or reached at all (fatal)."""


class Transport(AutoscoreError):
    """HTTP-level failure surfaced after the retry policy is exhausted."""

    def __init__(self, status: int, body: str):
        self.status = status
        super().__init__(f"transport error (status {status}): {body[:200]}")


class RateLimited(Transport):
    """Still rate limited after exponential backoff ran out of attempts."""


class ReplayMiss(AutoscoreError):
    """A replay fixture has no entry for the request digest; fixtures never
    fall through to the network."""


class ScriptExhausted(AutoscoreError):
    """The scripted backend has no response left (or no rule matched)."""


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request, always at temperature 0 with a JSON
    reply format; the cache/replay key covers every field.

    `digest` is `request_digest` of the request, computed once here: the
    agents record it and the digest store looks it up. (A
    `functools.cached_property` would serialise every first read behind
    one lock shared by all instances on Python 3.11.)
    """

    model_name: str
    messages: tuple[tuple[str, str], ...]  # (role, content), role in {system,user}
    max_output_tokens: int = 1024
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a request needs at least one message")
        for role, _ in self.messages:
            if role not in ("system", "user"):
                raise ValueError(f"unsupported message role {role!r}")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        object.__setattr__(self, "digest", request_digest(self))


@dataclass(frozen=True)
class ChatResponse:
    text: str
    latency_ms: int
    from_cache: bool = False

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        if self.latency_ms == 0 and not self.from_cache:
            raise ValueError("zero latency is only permitted for cache hits")


def request_digest(request: ChatRequest) -> str:
    """Deterministic cross-platform digest (hex SHA-256) of the full request.

    Canonical form sorts the payload keys; message content is hashed
    verbatim, with no whitespace normalization anywhere. The constant
    temperature and JSON format stay in the payload, so that digests, and
    the cache and replay files keyed on them, do not change."""
    payload = {
        "model_name": request.model_name,
        "messages": [[role, content] for role, content in request.messages],
        "temperature": 0.0,
        "max_output_tokens": request.max_output_tokens,
        "force_json": True,
    }
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _KeptAlive(dict):
    """One thread's open connections by (scheme, host:port, proxy,
    timeout); closed when the thread ends and its thread-local storage is
    dropped."""

    def __del__(self) -> None:
        for conn in self.values():
            conn.close()


_thread_connections = threading.local()


def _default_transport(
    url: str, headers: dict, body: dict, timeout_s: float
) -> tuple[int, str]:
    """POST `body` as JSON and return (status, text), or (0, reason) when
    no response came back.

    Each thread keeps one connection alive per (scheme, host:port, proxy,
    timeout). A kept-alive connection the server closed while it sat idle
    fails on send or on the status line; that one failure is retried at
    once on a fresh connection. Proxies come from the standard environment
    variables (http_proxy, https_proxy, no_proxy); https goes through a
    CONNECT tunnel and verifies certificates against the system trust
    store.
    """
    # imported on first use, so only runs that reach a remote model pay it
    import http.client
    from urllib.parse import urlsplit
    from urllib.request import getproxies, proxy_bypass

    parts = urlsplit(url)
    proxy = getproxies().get(parts.scheme)
    if proxy and proxy_bypass(parts.netloc):
        proxy = None
    key = (parts.scheme, parts.netloc, proxy, timeout_s)
    pool = getattr(_thread_connections, "pool", None)
    if pool is None:
        pool = _thread_connections.pool = _KeptAlive()
    payload = json.dumps(body).encode("utf-8")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    if proxy and parts.scheme == "http":
        target = url  # a plain-http proxy takes the absolute URI

    def connect() -> http.client.HTTPConnection:
        host, port = parts.hostname, parts.port
        if proxy:
            proxy_parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            host, port = proxy_parts.hostname, proxy_parts.port or 80
        if parts.scheme == "https":
            conn = http.client.HTTPSConnection(host, port, timeout=timeout_s)
            if proxy:
                conn.set_tunnel(parts.hostname, parts.port or 443)
            return conn
        return http.client.HTTPConnection(host, port, timeout=timeout_s)

    def exchange(conn: http.client.HTTPConnection) -> http.client.HTTPResponse:
        conn.request("POST", target, payload, headers)
        return conn.getresponse()

    conn = pool.pop(key, None)
    try:
        if conn is not None:
            try:
                resp = exchange(conn)
            except (ConnectionError, http.client.BadStatusLine):
                # the server closed it while idle: once more, on a fresh one
                conn.close()
                conn = None
        if conn is None:
            conn = connect()
            resp = exchange(conn)
        text = resp.read().decode("utf-8", errors="replace")
    except (OSError, http.client.HTTPException) as exc:
        if conn is not None:
            conn.close()
        return 0, f"connection failure: {exc}"
    if not resp.will_close:  # on Connection: close, http.client closed it
        pool[key] = conn
    return resp.status, text


class RemoteBackend:
    """OpenAI-compatible chat-completions client with retry and backoff.

    Policy: 429 and 5xx (and connection failures, status 0) are retried
    with exponential backoff (base 1s, factor 2) up to 5 attempts total;
    any other 4xx is raised immediately. The bearer token comes from the
    AUTOSCORE_API_KEY environment variable.
    """

    MAX_ATTEMPTS = 5
    BACKOFF_BASE_S = 1.0
    BACKOFF_FACTOR = 2.0

    def __init__(
        self,
        base_url: str,
        model_name: str,
        api_key: str | None = None,
        timeout_s: float = 120.0,
        max_in_flight: int | None = None,
        transport: Callable[..., tuple[int, str]] | None = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendUnavailable(
                f"remote backend needs an API key in ${API_KEY_ENV}"
            )
        if not base_url:
            raise BackendUnavailable("remote backend needs a base_url")
        self.base_url = base_url.rstrip("/")
        self.model_name = model_name
        self._api_key = key
        self._timeout_s = timeout_s
        self._transport = transport or _default_transport
        self._sleeper = sleeper
        self._gate = (threading.BoundedSemaphore(max_in_flight) if max_in_flight
                      else contextlib.nullcontext())

    @property
    def identity(self) -> str:
        return f"remote:{self.base_url}:{self.model_name}"

    def complete(self, request: ChatRequest) -> ChatResponse:
        url = f"{self.base_url}/chat/completions"
        headers = {
            "Authorization": f"Bearer {self._api_key}",
            "Content-Type": "application/json",
        }
        body = {
            "model": request.model_name,
            "messages": [
                {"role": role, "content": content}
                for role, content in request.messages
            ],
            "temperature": 0.0,
            "max_tokens": request.max_output_tokens,
            "response_format": {"type": "json_object"},
        }

        latency_total_ms = 0
        backoff = self.BACKOFF_BASE_S
        status, text = 0, ""
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt > 0:
                self._sleeper(backoff)
                backoff *= self.BACKOFF_FACTOR
            with self._gate:
                started = time.perf_counter()
                status, text = self._transport(url, headers, body, self._timeout_s)
                elapsed_ms = max(1, round((time.perf_counter() - started) * 1000))
            latency_total_ms += elapsed_ms
            if status == 200:
                try:
                    content = json.loads(text)["choices"][0]["message"]["content"]
                except (ValueError, RecursionError, KeyError, IndexError, TypeError):
                    content = None
                if not isinstance(content, str):  # null content too
                    raise Transport(status, f"malformed completion body: {text[:200]}")
                return ChatResponse(content, latency_total_ms, from_cache=False)
            if 400 <= status < 500 and status != 429:
                raise Transport(status, text)
            logger.warning(
                "retryable backend failure (status %s), attempt %d/%d",
                status, attempt + 1, self.MAX_ATTEMPTS,
            )
        if status == 429:
            raise RateLimited(status, text)
        raise Transport(status, text)


class ScriptedBackend:
    """Scripted mock for tests and dry runs. Exactly one source is given:

    - responses: a list consumed in call order (single-threaded tests),
    - script: a callable(request) -> str, keyed on request content, safe
      under any parallelism,
    - rules: [{"match": [substr, ...], "text": str}]; the first rule whose
      substrings all occur in the rendered messages wins.

    Counts every call, for cache/no-network assertions.
    """

    def __init__(
        self,
        responses: list[str] | None = None,
        script: Callable[[ChatRequest], str] | None = None,
        rules: list[dict] | None = None,
        model_name: str = "scripted",
        latency_ms: int = 1,
    ):
        sources = [s is not None for s in (responses, script, rules)]
        if sum(sources) != 1:
            raise ValueError("provide exactly one of responses, script, rules")
        self.model_name = model_name
        self._queue = list(responses) if responses is not None else None
        self._script = script
        self._rules = rules
        self._latency_ms = max(1, latency_ms)
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def identity(self) -> str:
        return f"scripted:{self.model_name}"

    @property
    def call_count(self) -> int:
        return self._calls

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self._calls += 1
            if self._queue is not None:
                if not self._queue:
                    raise ScriptExhausted("scripted response queue is empty")
                text = self._queue.pop(0)
                return ChatResponse(text, self._latency_ms)
        if self._script is not None:
            return ChatResponse(self._script(request), self._latency_ms)
        blob = "\n".join(content for _, content in request.messages)
        for rule in self._rules or []:
            needles = rule["match"]
            if isinstance(needles, str):
                needles = [needles]
            if all(needle in blob for needle in needles):
                return ChatResponse(
                    rule["text"], int(rule.get("latency_ms", self._latency_ms))
                )
        raise ScriptExhausted("no scripted rule matched the request")


def parse_jsonl(
    path: str | Path, data: bytes, parse: Callable[[str], T],
    corrupt: type[AutoscoreError],
) -> list[T]:
    """Parse `data`, the bytes of JSONL file `path`, one `parse` per line;
    blank lines are skipped. Lines end at b"\\n" only, so a U+2028 inside
    a JSON string stays in its line. A line that is not UTF-8 or does not
    parse raises `corrupt`, naming the file and the 1-based line."""
    entries = []
    for number, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            entries.append(parse(line.decode("utf-8")))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise corrupt(f"{path} line {number} does not parse: {exc!r}") from None
    return entries


def read_jsonl(
    path: str | Path, parse: Callable[[str], T], corrupt: type[AutoscoreError]
) -> tuple[list[T], int]:
    """`parse_jsonl` over an append-only JSONL file. Every append writes one
    whole line ending in a newline, so bytes after the last newline are a
    torn append (a crash mid-write) and are left out. Returns the entries
    and the byte length of the intact prefix, where a writer must start
    its next append. A missing file reads as empty."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    end = data.rfind(b"\n") + 1
    if end < len(data):
        logger.warning("ignoring a torn last line in %s", path)
    return parse_jsonl(path, data[:end], parse, corrupt), end


class CachingBackend:
    """Digest store: request digest -> recorded completion text, kept as an
    append-only JSONL of {"digest", "text", "latency_ms"} ("latency_ms"
    optional when read) and an in-memory index.

    CachingBackend(inner, path) is a write-through cache around any
    backend: hits return the recorded text with from_cache=True and zero
    latency, misses call `inner` and append the answer. Concurrent misses
    on one digest call `inner` once; the others wait and then hit.

    CachingBackend(None, path, model_name) is replay: the file must exist,
    a miss raises ReplayMiss (never a network call), and hits report the
    recorded latency (default 1 ms) with from_cache=False.
    """

    def __init__(self, inner, cache_path: str | Path, model_name: str = "replay"):
        self.inner = inner
        self.model_name = inner.model_name if inner is not None else model_name
        self._path = Path(cache_path)
        if inner is None and not self._path.exists():
            raise BackendUnavailable(f"replay fixture not found: {self._path}")

        def parse(line: str) -> tuple[str, tuple[str, int, bool]]:
            # digest -> the (text, latency_ms, from_cache) a hit returns
            entry = json.loads(line)
            if inner is not None:
                return entry["digest"], (entry["text"], 0, True)
            latency_ms = max(1, int(entry.get("latency_ms", 1)))
            return entry["digest"], (entry["text"], latency_ms, False)

        entries, end = read_jsonl(self._path, parse, BackendUnavailable)
        self._index: dict[str, tuple[str, int, bool]] = dict(entries)
        self._flights: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        if inner is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # one append handle for the store's lifetime, closed with it
            self._handle = self._path.open("a", encoding="utf-8")
            weakref.finalize(self, self._handle.close)
            # cut a torn tail off, so the next entry starts a line of its own
            self._handle.truncate(end)

    @property
    def identity(self) -> str:
        if self.inner is None:
            return f"replay:{self.model_name}"
        return self.inner.identity

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request.digest
        hit = self._index.get(digest)
        if hit is not None:
            return ChatResponse(*hit)
        if self.inner is None:
            raise ReplayMiss(f"no replay fixture for request digest {digest}")
        while True:
            with self._lock:
                hit = self._index.get(digest)
                if hit is not None:
                    return ChatResponse(*hit)
                flight = self._flights.get(digest)
                if flight is None:
                    flight = self._flights[digest] = threading.Event()
                    break
            # another caller is asking the model; retry once it settles
            flight.wait()
        try:
            response = self.inner.complete(request)
            line = json.dumps(
                {"digest": digest, "text": response.text,
                 "latency_ms": response.latency_ms},
                ensure_ascii=True,
            )
            with self._lock:
                self._handle.write(line + "\n")
                self._handle.flush()
                self._index[digest] = (response.text, 0, True)
        finally:
            with self._lock:
                del self._flights[digest]
            flight.set()
        return response
