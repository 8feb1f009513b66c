"""Chat-completion judge stub on 127.0.0.1 for the ``pretrain_remote`` workload.

One thread runs an asyncio loop that speaks HTTP/1.1 with keep-alive. The
per-reply delay is an ``asyncio.sleep``, so it never blocks the loop. At most
``max_connections`` connections are served at once; further ones wait.

Answers are deterministic: the stub reads the history and candidate items back
out of the prompt text and picks the label the synthetic judge would pick from
the ground-truth latents (``prefrl.oracle.synthetic_choice``). Every
``fail_every``-th request, counted from 1 and shifted by ``fail_offset``, gets
HTTP 503 instead, so the client's retry path runs on a fixed share of calls.
"""
from __future__ import annotations

import asyncio
import json
import re
import string
import threading

_CANDIDATE_LINE = re.compile(r"^([a-z])\. (.*)$")


def _item_key(item, attribute_names) -> str:
    """The text an item is rendered as inside a judge prompt."""
    return "; ".join(item.attribute(name) for name in attribute_names)


class JudgeStub:
    """Serve ``POST .../chat/completions`` until :meth:`stop` is called.

    ``sent`` lists the label index (``None`` for the None answer) of every
    200 reply in the order sent; ``requests`` and ``rejected`` count all
    requests and the 503 replies; ``errors`` collects prompts it could not read.
    """

    def __init__(self, catalog, truth, threshold: float, judge, delay_s: float,
                 fail_every: int = 0, fail_offset: int = 0, max_connections: int = 2):
        self._ids = {_item_key(item, catalog.attribute_names): item.id for item in catalog.items}
        self._truth = truth
        self._threshold = threshold
        self._judge = judge
        self.delay_s = delay_s
        self.fail_every = fail_every
        self.fail_offset = fail_offset
        self.max_connections = max_connections
        self.sent: list[int | None] = []
        self.requests = 0
        self.rejected = 0
        self.errors: list[str] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self.port = 0

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def start(self) -> "JudgeStub":
        self._thread = threading.Thread(target=self._serve, name="judge-stub", daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("judge stub did not start within 10 s")
        if self._server is None:
            raise RuntimeError(f"judge stub failed to start: {self.errors}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
            if self._thread.is_alive():
                raise RuntimeError("judge stub thread did not stop within 10 s")
        self._thread = None

    def __enter__(self) -> "JudgeStub":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _serve(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        slots = asyncio.Semaphore(self.max_connections)

        async def handle(reader, writer):
            async with slots:
                try:
                    while await self._one_request(reader, writer):
                        pass
                except ConnectionError:
                    pass
                finally:
                    writer.close()

        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(handle, "127.0.0.1", 0))
            self.port = self._server.sockets[0].getsockname()[1]
        except OSError as exc:
            self.errors.append(f"bind failed: {exc}")
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    async def _one_request(self, reader, writer) -> bool:
        """Answer one request; False when the client closed the connection."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return False
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers.get("content-length", "0")))
        keep_alive = headers.get("connection", "").lower() != "close"
        self.requests += 1
        if self.fail_every and (self.requests + self.fail_offset) % self.fail_every == 0:
            self.rejected += 1
            status, payload = 503, b'{"error": "overloaded"}'
        else:
            status, payload = 200, await self._answer(body)
        reason = "OK" if status == 200 else "Service Unavailable"
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n".encode("latin-1")
            + payload)
        await writer.drain()
        return keep_alive

    async def _answer(self, body: bytes) -> bytes:
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
            history, candidates = self._read_prompt(prompt)
        except (ValueError, KeyError, IndexError) as exc:
            self.errors.append(f"unreadable prompt: {exc}")
            return json.dumps({"choices": [{"message": {"content": "?"}}]}).encode()
        label = self._judge(history, candidates, self._truth, self._threshold).label_index
        await asyncio.sleep(self.delay_s)
        self.sent.append(label)
        answer = "None" if label is None else string.ascii_lowercase[label]
        text = f"By analysing the user's preference, the user will select {answer}."
        return json.dumps({"choices": [{"index": 0, "message": {
            "role": "assistant", "content": text}}]}).encode()

    def _read_prompt(self, prompt: str) -> tuple[list[int], list[int]]:
        history: list[int] | None = None
        candidates: list[int] = []
        for line in prompt.split("\n"):
            if line.startswith("History: "):
                history = [self._ids[text] for text in line[len("History: "):-1].split(" | ")]
                continue
            m = _CANDIDATE_LINE.match(line)
            if m and history is not None and m.group(2) != "None":
                candidates.append(self._ids[m.group(2)])
        if not history or not candidates:
            raise ValueError("no history or candidates found")
        return history, candidates
