import json
from dataclasses import replace

import pytest

from sdsr.bench import run_benchmark, task_message
from sdsr.errors import TransportError
from sdsr.guidance import build_condition, build_summary
from sdsr.library import Category, KnowledgeLibrary, Skill
from sdsr.remote import RemoteBackend, RemoteConfig
from sdsr.wire import decode

from _fixtures import build_fixture_library, fixture_prompt_config


def make_config(**overrides):
    defaults = dict(endpoint="https://chat.example/v1/completions", model="router-1",
                    retry_backoff=0.0)
    defaults.update(overrides)
    return RemoteConfig(**defaults)


class RecordingTransport:
    """Scripted transport: pops one (status, body) per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append({"url": url, "payload": payload,
                           "headers": headers, "timeout": timeout})
        status, body = self.responses.pop(0)
        return status, body


def chat_body(content):
    return {"choices": [{"message": {"content": content}}]}


class TestChat:
    def test_payload_uses_configured_field_names(self):
        transport = RecordingTransport([(200, chat_body("ok"))])
        config = make_config(field_names={
            "model": "engine", "messages": "dialogue", "temperature": "temp"})
        backend = RemoteBackend(config, transport=transport)
        assert backend.chat([{"role": "user", "content": "hi"}]) == "ok"
        payload = transport.calls[0]["payload"]
        assert payload["engine"] == "router-1"
        assert payload["dialogue"] == [{"role": "user", "content": "hi"}]
        assert payload["temp"] == 0.0

    def test_api_key_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("SDSR_API_KEY", "sekret")
        transport = RecordingTransport([(200, chat_body("ok"))])
        backend = RemoteBackend(make_config(), transport=transport)
        backend.chat([{"role": "user", "content": "x"}])
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sekret"

    def test_custom_api_key_env(self, monkeypatch):
        monkeypatch.delenv("SDSR_API_KEY", raising=False)
        monkeypatch.setenv("OTHER_KEY", "abc")
        transport = RecordingTransport([(200, chat_body("ok"))])
        backend = RemoteBackend(make_config(api_key_env="OTHER_KEY"), transport=transport)
        backend.chat([{"role": "user", "content": "x"}])
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer abc"

    def test_retries_transient_failures_then_succeeds(self):
        transport = RecordingTransport([
            (503, {"error": "busy"}),
            (503, {"error": "busy"}),
            (200, chat_body("finally")),
        ])
        backend = RemoteBackend(make_config(max_retries=3), transport=transport)
        assert backend.chat([{"role": "user", "content": "x"}]) == "finally"
        assert len(transport.calls) == 3

    def test_gives_up_after_max_retries(self):
        transport = RecordingTransport([(500, {})] * 2)
        backend = RemoteBackend(make_config(max_retries=2), transport=transport)
        with pytest.raises(TransportError):
            backend.chat([{"role": "user", "content": "x"}])

    def test_non_retryable_status_fails_fast(self):
        transport = RecordingTransport([(401, {"error": "who are you"})])
        backend = RemoteBackend(make_config(max_retries=3), transport=transport)
        with pytest.raises(TransportError):
            backend.chat([{"role": "user", "content": "x"}])
        assert len(transport.calls) == 1

    def test_socket_error_from_transport_is_retried_then_a_transport_error(self):
        calls = []

        def resetting_transport(url, payload, headers, timeout):
            calls.append(url)
            raise ConnectionResetError(104, "Connection reset by peer")

        backend = RemoteBackend(make_config(max_retries=2), transport=resetting_transport)
        with pytest.raises(TransportError, match="ConnectionResetError"):
            backend.chat([{"role": "user", "content": "x"}])
        assert len(calls) == 2

    def test_socket_error_then_success_returns_content(self):
        responses = [ConnectionResetError("reset"), (200, chat_body("recovered"))]

        def flaky_transport(url, payload, headers, timeout):
            outcome = responses.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        backend = RemoteBackend(make_config(max_retries=2), transport=flaky_transport)
        assert backend.chat([{"role": "user", "content": "x"}]) == "recovered"

    def test_missing_content_path_is_a_transport_error(self):
        transport = RecordingTransport([(200, {"unexpected": "shape"})])
        backend = RemoteBackend(make_config(), transport=transport)
        with pytest.raises(TransportError):
            backend.chat([{"role": "user", "content": "x"}])

    def test_custom_content_path(self):
        transport = RecordingTransport([(200, {"output": [{"text": "deep"}]})])
        backend = RemoteBackend(
            make_config(response_content_path=("output", 0, "text")), transport=transport)
        assert backend.chat([{"role": "user", "content": "x"}]) == "deep"


class TestRoute:
    def _summaries(self):
        libs = {}
        for i, topic in enumerate(["harbor", "lantern", "quartz"]):
            lib = KnowledgeLibrary(categories=(
                Category(name=f"{topic.capitalize()}_Topic",
                         description=f"about {topic}",
                         skills=(Skill(name="S"),)),))
            libs[f"file{i}"] = build_summary(lib).summary
        return tuple(sorted(libs.items()))

    def test_ranked_ids_score_by_rank(self):
        transport = RecordingTransport([(200, chat_body("file1\nfile0\n"))])
        backend = RemoteBackend(make_config(), transport=transport)
        scores = dict(backend.route("query", self._summaries()))
        assert scores["file1"] == pytest.approx(3 / 3)
        assert scores["file0"] == pytest.approx(2 / 3)
        assert scores["file2"] == 0.0

    def test_unknown_ids_in_reply_ignored(self):
        transport = RecordingTransport([(200, chat_body("- file2\nnot_a_file\n"))])
        backend = RemoteBackend(make_config(), transport=transport)
        scores = dict(backend.route("query", self._summaries()))
        assert scores["file2"] > 0.0
        assert set(scores) == {"file0", "file1", "file2"}

    def test_prompt_includes_every_summary(self):
        transport = RecordingTransport([(200, chat_body("file0"))])
        backend = RemoteBackend(make_config(), transport=transport)
        backend.route("the query", self._summaries())
        content = transport.calls[0]["payload"]["messages"][0]["content"]
        for fid in ("file0", "file1", "file2"):
            assert fid in content
        assert "the query" in content


class TestSelect:
    def test_selection_parsed_from_response_grammar(self):
        lib = build_fixture_library(with_summary=False)
        reply = ("Q01: Occult_&_Ritual_Systems | Spread_Position_Reader ; "
                 "Visual_Architecture | Moodboard_Digest\n"
                 "Q02: Game_Design_&_Mechanics | Combat_Curve_Planner\n")
        transport = RecordingTransport([(200, chat_body(reply))])
        backend = RemoteBackend(make_config(), transport=transport)
        result = backend.select(
            [(1, "first question"), (2, "second question")], [lib],
            system_prompt="SYSTEM MARKER")
        assert len(result.selections) == 2
        assert result.selections[0].secondary.category == "Visual_Architecture"
        messages = transport.calls[0]["payload"]["messages"]
        assert messages[0] == {"role": "system", "content": "SYSTEM MARKER"}
        assert "Q01." in messages[1]["content"]

    @pytest.mark.parametrize("body_key", ["High_Impact_Skills_Library", "My_Skills"])
    @pytest.mark.parametrize("version", ["A", "D"])
    def test_benchmark_transcript_is_the_conversation_sent(self, questions, version, body_key):
        lib = replace(build_fixture_library(), body_key=body_key)
        condition = build_condition(lib, version, fixture_prompt_config())
        reply = "Q01: Visual_Architecture | Moodboard_Digest"
        transport = RecordingTransport([(200, chat_body(reply))])
        [result] = run_benchmark(
            [condition], questions, RemoteBackend(make_config(), transport=transport))
        system, user = transport.calls[0]["payload"]["messages"]
        assert system == {"role": "system", "content": condition.system_prompt}
        # The remote serializes the library itself: what it sends is the artifact.
        assert user["content"] == task_message(
            condition.library_artifact.decode("utf-8"), [(q.id, q.text) for q in questions])
        assert f'"{body_key}"' in user["content"]
        assert result.report is not None
        assert result.transcript == (system["content"] + "\n\n" + user["content"]
                                     + "\n\n--- response ---\n" + reply + "\n")

    def test_question_id_past_the_int_digit_limit_fails_only_its_condition(self, questions):
        lib = build_fixture_library()
        conditions = [build_condition(lib, version, fixture_prompt_config())
                      for version in ("A", "D")]
        transport = RecordingTransport([
            (200, chat_body("Q" + "1" * 5000 + ": Visual_Architecture | Moodboard_Digest")),
            (200, chat_body("Q01: Visual_Architecture | Moodboard_Digest"))])
        failed, scored = run_benchmark(
            conditions, questions, RemoteBackend(make_config(), transport=transport))
        assert failed.report is None
        assert failed.error == ("UnknownQuestion: line 1: a 5000-digit question id "
                                "is not in the question set")
        assert scored.report is not None and scored.error is None


def test_config_from_dict_round_trip():
    config = decode(RemoteConfig, json.loads(json.dumps({
        "endpoint": "https://x.example/api",
        "model": "m",
        "api_key_env": "MY_KEY",
        "timeout": 5,
        "max_retries": 7,
        "field_names": {"model": "engine"},
        "response_content_path": ["a", 0, "b"],
    })))
    assert config.endpoint == "https://x.example/api"
    assert config.api_key_env == "MY_KEY"
    assert config.max_retries == 7
    assert config.field_names["model"] == "engine"
    assert config.field_names["messages"] == "messages"
    assert config.response_content_path == ("a", 0, "b")
