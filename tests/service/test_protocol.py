"""The wire schema, content keys and the config registry
(docs/service.md)."""

import pytest

from repro.core import SpecConfig
from repro.pipeline import content_key, shard_of
from repro.service import protocol
from repro.service.registry import resolve_config


def _run_req(**over):
    req = {"id": 1, "op": "run", "source": "void main() { print(1); }",
           "config": "profile", "train": [1], "ref": [2]}
    req.update(over)
    return req


class TestValidateRequest:
    def test_accepts_minimal_ops(self):
        for op in ("ping", "stats"):
            protocol.validate_request({"id": "a", "op": op})

    def test_accepts_compile_run_campaign(self):
        protocol.validate_request(_run_req())
        protocol.validate_request({"id": 2, "op": "compile",
                                   "source": "x", "train": []})
        protocol.validate_request({"id": 3, "op": "campaign",
                                   "workloads": ["parser"],
                                   "scenarios": ["poison"], "seeds": [0]})

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"op": "run"},                                  # no id
        {"id": 1, "op": "explode"},                     # unknown op
        {"id": 1, "op": "run"},                         # no source
        {"id": 1, "op": "run", "source": 7},            # source not str
        _run_req(train="1,2"),                          # train not list
        _run_req(train=[True]),                         # bool is not num
        _run_req(fuel=-5),                              # bad fuel
        _run_req(timeout_ms=0),                         # bad timeout
        {"id": 1, "op": "campaign", "scenarios": []},   # empty scenarios
        {"id": 1, "op": "campaign", "seeds": ["x"]},    # bad seeds
    ])
    def test_rejects(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(bad)

    def test_error_carries_salvaged_id(self):
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.validate_request({"id": "r9", "op": "explode"})
        assert exc.value.request_id == "r9"


class TestValidateResponse:
    def test_ok_and_error_shapes(self):
        protocol.validate_response(protocol.ok_response(1, "ping", {}))
        protocol.validate_response(
            protocol.error_response(1, "timeout", "too slow"))

    def test_overload_is_a_known_type_with_retry_hint(self):
        resp = protocol.error_response(1, "overload", "queue full",
                                       retry_after_ms=150)
        protocol.validate_response(resp)
        assert resp["error"]["retry_after_ms"] == 150

    @pytest.mark.parametrize("bad", [
        {"ok": True},                                   # no id
        {"id": 1, "ok": True},                          # no result
        {"id": 1, "ok": False},                         # no error
        {"id": 1, "ok": False,
         "error": {"type": "novel", "message": "x"}},   # unknown type
        {"id": 1, "ok": False, "error": {"type": "timeout"}},  # no msg
        {"id": 1, "ok": False,
         "error": {"type": "overload", "message": "x",
                   "retry_after_ms": -5}},              # negative hint
        {"id": 1, "ok": False,
         "error": {"type": "overload", "message": "x",
                   "retry_after_ms": True}},            # bool hint
    ])
    def test_rejects(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_response(bad)

    def test_error_types_is_a_closed_set(self):
        """Both sides validate against the same tuple, so an unlisted
        type cannot cross the wire in either direction."""
        assert "overload" in protocol.ERROR_TYPES
        bad = {"id": 1, "ok": False,
               "error": {"type": "made-up", "message": "x"}}
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_response(bad)  # client-side reject
        with pytest.raises(AssertionError):
            protocol.error_response(1, "made-up", "x")  # daemon-side


class TestKeys:
    def test_request_key_ignores_id_and_timeout(self):
        a = protocol.request_key(_run_req(id=1, timeout_ms=50))
        b = protocol.request_key(_run_req(id="other"))
        assert a == b

    def test_request_key_separates_ops_and_inputs(self):
        run = protocol.request_key(_run_req())
        compile_ = protocol.request_key(
            {"id": 1, "op": "compile",
             "source": "void main() { print(1); }",
             "config": "profile", "train": [1]})
        other_ref = protocol.request_key(_run_req(ref=[3]))
        other_src = protocol.request_key(_run_req(source="void main(){}"))
        assert len({run, compile_, other_ref, other_src}) == 4

    def test_non_work_ops_have_no_key(self):
        assert protocol.request_key({"id": 1, "op": "ping"}) is None

    def test_content_key_is_portable_and_shardable(self):
        key = content_key("src", SpecConfig.profile(), [1], 1000, True)
        assert key == content_key("src", SpecConfig.profile(), [1],
                                  1000, True)
        assert key != content_key("src", SpecConfig.base(), [1],
                                  1000, True)
        shards = {shard_of(key, n) for n in (1, 2, 7)}
        assert all(0 <= s for s in shards)
        assert shard_of(key, 1) == 0
        with pytest.raises(ValueError):
            shard_of(key, 0)

    def test_framing_round_trip(self):
        req = _run_req()
        assert protocol.decode_line(protocol.encode(req)) == req
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{nope\n")


class TestRegistry:
    def test_base_names(self):
        assert repr(resolve_config("profile")) \
            == repr(SpecConfig.profile())
        assert repr(resolve_config("base")) == repr(SpecConfig.base())

    def test_composition(self):
        config = resolve_config("profile+superblock+noedge")
        assert config.scheduler == "superblock"
        assert config.use_edge_profile is False

    @pytest.mark.parametrize("bad", ["", "+", "nonsense",
                                     "profile+nonsense"])
    def test_unknown_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            resolve_config(bad)
