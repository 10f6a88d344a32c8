"""Chat-completion backends: a real OpenAI-compatible HTTP client and
offline mocks that parse the step prompt themselves.

The mocks exist so the full controller loop (prompt -> completion ->
parse -> act) runs deterministically with no network: they read the very
table build_step_prompt rendered, apply a named heuristic, and answer in
the required grammar. The 'invalid' strategy answers prose that can never
parse, exercising the retry/fallback path.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "FRSICL_API_KEY"

MOCK_STRATEGIES = ("max-aoi", "nearest", "invalid")
MOCK_SPECS = tuple(f"mock:{strategy}" for strategy in MOCK_STRATEGIES)

# Decoding settings of every HTTP request: greedy and short, since the
# reply is one small JSON object.
TEMPERATURE = 0.0
MAX_TOKENS = 64
# Largest reply body read; a good one is a few hundred bytes.
MAX_REPLY_BYTES = 64 * 1024

_TABLE_ROW = re.compile(
    r"^(\d+) \| ([0-9.]+) \| (-?[0-9.]+) \| (yes|no)$", re.MULTILINE)
_GRAMMAR = re.compile(
    r'"velocity": <number (-?[0-9.]+)\.\.(-?[0-9.]+)>')


class BackendError(RuntimeError):
    """Any failed completion attempt: timeout, bad status, malformed body."""


class HttpBackend:
    """POSTs to <endpoint>/v1/chat/completions with a bearer credential.

    A reply must be whole within timeout_s of the start of the post: the
    body is read as it arrives, and the deadline is checked before each
    read. One read waits at most timeout_s, so a call returns within about
    twice timeout_s.

    `requests` (and with it urllib3 and ssl) is imported here, not at module
    level, so that only a run that builds an HTTP backend loads it.
    """

    def __init__(self, endpoint: str, model: str, timeout_s: float,
                 session: Optional[requests.Session] = None):
        import requests

        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.timeout_s = timeout_s
        self.session = session or requests.Session()

    def complete(self, system: str, user: str) -> str:
        import requests
        import urllib3

        url = f"{self.endpoint}/v1/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        deadline = time.monotonic() + self.timeout_s
        try:
            response = self.session.post(url, json=body, headers=headers,
                                         timeout=self.timeout_s, stream=True)
            try:
                if not 200 <= response.status_code < 300:
                    raise BackendError(f"status {response.status_code}")
                reply = _read_capped(response.raw, deadline, self.timeout_s)
            finally:
                response.close()
        except (requests.Timeout, urllib3.exceptions.TimeoutError) as exc:
            raise BackendError(f"timeout after {self.timeout_s} s") from exc
        except (requests.RequestException, urllib3.exceptions.HTTPError) as exc:
            raise BackendError(f"transport error: {exc}") from exc
        try:
            content = json.loads(reply)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion body: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError("malformed completion body: content is "
                               f"{type(content).__name__}, not a string")
        return content


def _read_capped(raw, deadline: float, timeout_s: float) -> bytes:
    """The body of a streamed reply from its urllib3 response `raw`, in
    reads that return what has arrived; BackendError past MAX_REPLY_BYTES,
    or once time.monotonic() passes `deadline`."""
    chunks, size = [], 0
    while True:
        if time.monotonic() > deadline:
            raise BackendError(f"timeout after {timeout_s} s")
        chunk = raw.read1(16 * 1024, decode_content=True)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
        size += len(chunk)
        if size > MAX_REPLY_BYTES:
            raise BackendError(f"reply body over {MAX_REPLY_BYTES} bytes")


def _parse_step_prompt(user: str):
    """Recover (rows, v_max) from the step prompt's fixed layout."""
    rows = [
        {
            "id": int(m.group(1)),
            "aoi_s": float(m.group(2)),
            "path_loss_db": float(m.group(3)),
            "eligible": m.group(4) == "yes",
        }
        for m in _TABLE_ROW.finditer(user)
    ]
    grammar = _GRAMMAR.search(user)
    v_max = float(grammar.group(2)) if grammar else 15.0
    return rows, v_max


class MockBackend:
    """Offline deterministic backend applying one of the named heuristics."""

    def __init__(self, strategy: str):
        if strategy not in MOCK_STRATEGIES:
            raise ValueError(f"unknown mock strategy {strategy!r}; "
                             f"choose one of {MOCK_STRATEGIES}")
        self.strategy = strategy

    def complete(self, system: str, user: str) -> str:
        if self.strategy == "invalid":
            return "I am sorry, I would rather discuss the weather today."
        rows, v_max = _parse_step_prompt(user)
        if not rows:
            raise BackendError("mock backend found no sensor table in prompt")
        pool = [r for r in rows if r["eligible"]] or rows
        if self.strategy == "max-aoi":
            best = max(pool, key=lambda r: (r["aoi_s"], -r["id"]))
        else:  # nearest: lowest path loss stands in for lowest distance
            best = min(pool, key=lambda r: (r["path_loss_db"], r["id"]))
        return json.dumps({"sensor": best["id"], "velocity": v_max})


def check_backend(spec: str) -> None:
    """ValueError unless `spec` names a backend: 'mock:<strategy>' for one of
    MOCK_STRATEGIES, or an http:// or https:// endpoint URL."""
    if spec not in MOCK_SPECS and not spec.startswith(("http://", "https://")):
        raise ValueError(f"unknown backend {spec!r}; give one of "
                         f"{', '.join(MOCK_SPECS)} or an http:// or https:// "
                         "endpoint URL")


def make_backend(spec: str, model: str, timeout_s: float):
    """The backend `spec` names (see check_backend)."""
    check_backend(spec)
    if spec in MOCK_SPECS:
        return MockBackend(spec[len("mock:"):])
    return HttpBackend(spec, model, timeout_s)
