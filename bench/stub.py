"""Loopback stub of an OpenAI-compatible model server.

One process, one thread, one asyncio event loop: no thread per
connection. ``POST /chat/completions`` answers from the seeded script
(gen.answer) after a fixed injected latency. ``GET /stats`` returns the
counts the benchmark reads: connections that carried at least one chat
request, and chat requests. Connections are kept alive when the client
allows it, so a pooled client shows fewer connections than requests.

Usage: python3 stub.py SCRIPT_JSON LATENCY_MS
Prints ``PORT <n>`` once listening on 127.0.0.1; stops on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402


class Stub:
    def __init__(self, script: dict, latency_s: float):
        self.script = script
        self.latency_s = latency_s
        self.connections = 0
        self.requests = 0

    async def handle(self, reader, writer) -> None:
        counted = False
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                method, path, _ = request_line.decode("latin-1").split(" ", 2)
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(
                    int(headers.get("content-length", "0"))
                )
                if method == "POST" and path == "/chat/completions":
                    if not counted:
                        counted = True
                        self.connections += 1
                    self.requests += 1
                    payload = json.loads(body)
                    messages = [(m["role"], m["content"])
                                for m in payload["messages"]]
                    text = gen.answer(self.script, messages)
                    await asyncio.sleep(self.latency_s)
                    status, out = 200, {"choices": [{"message": {
                        "role": "assistant", "content": text}}]}
                elif method == "GET" and path == "/stats":
                    status, out = 200, {"connections": self.connections,
                                        "requests": self.requests}
                else:
                    status, out = 404, {"error": "not found"}
                data = json.dumps(out).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Not Found'}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1")
                    + data
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


async def main(script_path: str, latency_ms: float) -> None:
    script = json.loads(Path(script_path).read_text(encoding="utf-8"))
    stub = Stub(script, latency_ms / 1000.0)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"PORT {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1], float(sys.argv[2])))
