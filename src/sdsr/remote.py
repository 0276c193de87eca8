"""Chat-completion HTTP backend for routing and selection.

The endpoint, model name, request field names, and response content
path are all configurable so the client can talk to any
OpenAI-compatible (or similar) chat API.  The API key is read from an
environment variable (SDSR_API_KEY by default) at call time, never
stored.  Responses are parsed with the same grammar the benchmark
uses, so a remote sweep and a lexical sweep score identically shaped
transcripts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import requests

from .bench import Question, parse_response, task_message
from .engine import SelectionSet
from .errors import TransportError
from .library import KnowledgeLibrary, SummaryBlock, serialize_library
from .prefix import summary_token_estimate

DEFAULT_API_KEY_ENV = "SDSR_API_KEY"

# (url, payload, headers, timeout) -> (status_code, parsed_json)
Transport = Callable[[str, dict, dict, float], tuple[int, object]]


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    model: str
    api_key_env: str = DEFAULT_API_KEY_ENV
    timeout: float = 60.0
    max_retries: int = 3
    retry_backoff: float = 1.0
    temperature: float = 0.0
    extra_headers: dict[str, str] = field(default_factory=dict)
    # Names of the request body fields, for APIs that deviate from the
    # usual model/messages/temperature triple; merged over the defaults.
    field_names: dict[str, str] = field(default_factory=dict)
    response_content_path: tuple[str | int, ...] = ("choices", 0, "message", "content")

    def __post_init__(self) -> None:
        defaults = {"model": "model", "messages": "messages", "temperature": "temperature"}
        object.__setattr__(self, "field_names", defaults | self.field_names)


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float):
    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        body = response.json()
    except ValueError:
        body = {"raw": response.text}
    return response.status_code, body


class RemoteBackend:
    """RouterBackend implementation over a chat-completion HTTP API.

    The server may sample, so identical calls may answer differently.
    Each route/select call is one fresh conversation.
    """

    def __init__(self, config: RemoteConfig, transport: Transport | None = None) -> None:
        self.config = config
        self._transport = transport or _requests_transport

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        headers.update(self.config.extra_headers)
        return headers

    def chat(self, messages: list[dict]) -> str:
        """Send one conversation, retrying transient failures."""
        cfg = self.config
        names = cfg.field_names
        payload = {
            names["model"]: cfg.model,
            names["messages"]: messages,
            names["temperature"]: cfg.temperature,
        }
        last_error: str = "no attempt made"
        for attempt in range(cfg.max_retries):
            if attempt and cfg.retry_backoff:
                time.sleep(cfg.retry_backoff * attempt)
            try:
                status, body = self._transport(
                    cfg.endpoint, payload, self._headers(), cfg.timeout)
            except OSError as exc:
                # requests.RequestException is an OSError; so are the socket
                # errors a custom transport may raise.
                last_error = f"request failed: {type(exc).__name__}: {exc}"
                continue
            if status == 200:
                return self._extract_content(body)
            last_error = f"HTTP {status}: {json.dumps(body)[:200]}"
            if status not in (429, 500, 502, 503, 504):
                break
        raise TransportError(
            f"{cfg.endpoint}: giving up after {cfg.max_retries} attempt(s); {last_error}")

    def _extract_content(self, body: object) -> str:
        node = body
        for step in self.config.response_content_path:
            try:
                node = node[step]
            except (KeyError, IndexError, TypeError) as exc:
                raise TransportError(
                    f"response lacks content at path {self.config.response_content_path}") from exc
        return str(node)

    def route(
        self, query: str, summaries: Sequence[tuple[str, SummaryBlock]]
    ) -> list[tuple[str, float]]:
        """Ask the model to rank files; scores are assigned by rank.

        The model answers with file ids, best first; ranked ids score
        (n - rank) / n and unmentioned files score 0.0.
        """
        listing = "\n".join(
            f"- {file_id}: {json.dumps(_hint_digest(block), ensure_ascii=False)}"
            for file_id, block in summaries
        )
        message = (
            "You route tasks to knowledge files using only their summary blocks.\n"
            f"Task: {query}\n\nFiles:\n{listing}\n\n"
            "Reply with the ids of the 1-3 most relevant files, one per line, "
            "most relevant first. Output ids only."
        )
        content = self.chat([{"role": "user", "content": message}])
        known = [file_id for file_id, _ in summaries]
        ranked: list[str] = []
        for line in content.splitlines():
            candidate = line.strip().strip("-* ").strip()
            if candidate in known and candidate not in ranked:
                ranked.append(candidate)
        n = len(known)
        scores = {fid: 0.0 for fid in known}
        for rank, fid in enumerate(ranked):
            scores[fid] = (n - rank) / n
        return list(scores.items())

    def select(
        self,
        questions: Sequence[tuple[int, str]],
        libraries: Sequence[KnowledgeLibrary],
        system_prompt: str | None = None,
    ) -> SelectionSet:
        """One fresh conversation: prompt + library + numbered questions."""
        library_text = "\n".join(serialize_library(lib) for lib in libraries)
        messages = []
        if system_prompt:
            messages.append({"role": "system", "content": system_prompt})
        messages.append({"role": "user", "content": task_message(library_text, questions)})
        content = self.chat(messages)
        placeholders = [Question(id=qid, text=text, primary_target="")
                        for qid, text in questions]
        selection, _findings = parse_response(content, placeholders)
        return selection


def _hint_digest(block: SummaryBlock) -> dict:
    """Compact summary view used in routing prompts (~200 tokens/file)."""
    digest = {
        "categories": [
            {"name": e.name, "skills": e.skill_count, "hint": e.routing_hint}
            for e in block.category_index
        ],
    }
    if block.routing_roles:
        digest["roles"] = {role: list(names) for role, names in block.routing_roles.items()}
    digest["tokens"] = summary_token_estimate(block)
    return digest
