import pytest

from sdsr.corpus import CrossReference
from sdsr.errors import MalformedFile
from sdsr.remote import RemoteConfig
from sdsr.wire import decode


@pytest.mark.parametrize("tp, value, expected", [
    (float, 3, 3.0),
    (float, 0.25, 0.25),
    (int | None, None, None),
    (tuple[str | int, ...], ["choices", 0], ("choices", 0)),
    (tuple[int, int], [4, 9], (4, 9)),
    (dict[str, tuple[str, ...]], {"r": ["a", "b"]}, {"r": ("a", "b")}),
    (tuple[CrossReference, ...], [{"from_section": "s1", "to_section": "s2", "extra": 1}],
     (CrossReference(from_section="s1", to_section="s2"),)),
], ids=["int-as-float", "float", "optional-null", "scalar-union", "fixed-tuple",
        "nested-map", "record-defaults-and-unknown-keys"])
def test_decodes_each_supported_shape(tp, value, expected):
    assert decode(tp, value) == expected


@pytest.mark.parametrize("tp, value, error", [
    (float, True, "expected a number, got a boolean"),
    (float, "0.3", "expected a number, got a string"),
    (int, True, "expected an integer, got a boolean"),
    (int, 3.0, "expected an integer, got a number"),
    (str, 7, "expected a string, got an integer"),
    (tuple[int, int], [1], "expected 2 items, got 1"),
    (dict[str, tuple[str, ...]], {"r": ["a", None]}, "r[1]: expected a string, got null"),
    (tuple[CrossReference, ...], [{"from_section": "s1"}],
     "[0].to_section: missing required key"),
], ids=["bool-as-float", "string-as-float", "bool-as-int", "float-as-int", "int-as-str",
        "short-fixed-tuple", "nested-map-path", "missing-key-path"])
def test_rejects_what_it_would_have_to_coerce(tp, value, error):
    with pytest.raises(MalformedFile) as info:
        decode(tp, value)
    assert str(info.value) == error


def test_the_root_keys_prefix_the_path():
    with pytest.raises(MalformedFile, match=r"^remote\.timeout: expected a number, got null$"):
        decode(RemoteConfig, {"endpoint": "e", "model": "m", "timeout": None}, "remote")
