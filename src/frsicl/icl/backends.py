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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "FRSICL_API_KEY"

MOCK_STRATEGIES = ("max-aoi", "nearest", "invalid")

_TABLE_ROW = re.compile(
    r"^(\d+) \| ([0-9.]+) \| (-?[0-9.]+) \| (yes|no)$", re.MULTILINE)
_GRAMMAR = re.compile(
    r'"velocity": <number (-?[0-9.]+)\.\.(-?[0-9.]+)>')


class BackendError(RuntimeError):
    """Any failed completion attempt: timeout, bad status, malformed body."""


@dataclass
class CompletionRequest:
    model: str
    system: str
    user: str
    temperature: float
    max_tokens: int


class HttpBackend:
    """POSTs to <endpoint>/v1/chat/completions with a bearer credential.

    `requests` (and with it urllib3 and ssl) is imported here, not at module
    level, so that only a run that builds an HTTP backend loads it.
    """

    def __init__(self, endpoint: str, timeout_s: float = 10.0,
                 session: Optional[requests.Session] = None):
        import requests

        self.endpoint = endpoint.rstrip("/")
        self.timeout_s = timeout_s
        self.session = session or requests.Session()

    def complete(self, request: CompletionRequest) -> str:
        import requests

        url = f"{self.endpoint}/v1/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": request.model,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        try:
            response = self.session.post(url, json=body, headers=headers,
                                         timeout=self.timeout_s)
        except requests.Timeout as exc:
            raise BackendError(f"timeout after {self.timeout_s} s") from exc
        except requests.RequestException as exc:
            raise BackendError(f"transport error: {exc}") from exc
        if not 200 <= response.status_code < 300:
            raise BackendError(f"status {response.status_code}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion body: {exc}") from exc
        if not isinstance(content, str):
            raise BackendError("malformed completion body: content is "
                               f"{type(content).__name__}, not a string")
        return content


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

    def complete(self, request: CompletionRequest) -> str:
        if self.strategy == "invalid":
            return "I am sorry, I would rather discuss the weather today."
        rows, v_max = _parse_step_prompt(request.user)
        if not rows:
            raise BackendError("mock backend found no sensor table in prompt")
        pool = [r for r in rows if r["eligible"]] or rows
        if self.strategy == "max-aoi":
            best = max(pool, key=lambda r: (r["aoi_s"], -r["id"]))
        else:  # nearest: lowest path loss stands in for lowest distance
            best = min(pool, key=lambda r: (r["path_loss_db"], r["id"]))
        return json.dumps({"sensor": best["id"], "velocity": v_max})


def make_backend(backend_spec: str, endpoint: Optional[str],
                 timeout_s: float):
    """backend_spec is 'http' or 'mock:<strategy>'."""
    if backend_spec == "http":
        if not endpoint:
            raise ValueError("http backend requires an endpoint URL")
        return HttpBackend(endpoint, timeout_s=timeout_s)
    if backend_spec.startswith("mock:"):
        return MockBackend(backend_spec.split(":", 1)[1])
    raise ValueError(f"unknown backend {backend_spec!r}")
