import math

import pytest

from sensan.errors import ConfigError, SensanError, nested, read


def test_read_returns_values_of_the_asked_type():
    spec = {"f": 1, "i": 801.0, "b": False, "s": "x", "l": (1, 2),
            "d": {"k": 1}}
    assert read(spec, "f", float) == 1.0 and type(read(spec, "f", float)) is float
    assert read(spec, "i", int) == 801 and type(read(spec, "i", int)) is int
    assert read(spec, "b", bool) is False
    assert read(spec, "s", str) == "x"
    assert read(spec, "l", list) == [1, 2]
    assert read(spec, "d", dict) == {"k": 1}


def test_read_missing_and_null_give_the_default_or_fail():
    assert read({}, "k", float, 0.5) == 0.5
    assert read({"k": None}, "k", str, "a") == "a"
    assert read({}, "k", dict, None) is None
    with pytest.raises(ConfigError, match="config key 'k': required"):
        read({}, "k", int)


@pytest.mark.parametrize("kind,value", [
    (bool, "no"), (bool, 1), (bool, 0.0),
    (int, True), (int, 2.5), (int, "3"), (int, math.inf), (int, math.nan),
    (float, False), (float, "0.5"), (float, math.nan), (float, -math.inf),
    (float, 10 ** 400), (float, [1.0]),
    (str, 3), (str, ["x"]), (list, "abc"), (list, {"a": 1}),
    (dict, [1]), (dict, "x"),
])
def test_read_rejects_other_json_types(kind, value):
    with pytest.raises(ConfigError, match="config key 'k': expected"):
        read({"k": value}, "k", kind)


def test_read_bounds_and_choices():
    assert read({"k": 3}, "k", int, lo=0, hi=3) == 3
    with pytest.raises(ConfigError, match="expected at least 0, got -1"):
        read({"k": -1}, "k", int, lo=0)
    with pytest.raises(ConfigError, match="expected at most 2 items"):
        read({"k": [1, 2, 3]}, "k", list, hi=2)
    with pytest.raises(ConfigError, match="expected one of 'a', 'b', got 'c'"):
        read({"k": "c"}, "k", str, choices=("a", "b"))


def test_read_names_the_list_item_and_nested_keys():
    assert read({"k": [1, 2.5]}, "k", list, of=float) == [1.0, 2.5]
    with pytest.raises(ConfigError) as exc:
        read({"k": [1.0, "x"]}, "k", list, of=float)
    assert str(exc.value) == ("config key 'k': item 1: expected a number, "
                              "got 'x'")
    with pytest.raises(ConfigError) as exc:
        with nested("metric"):
            read({"kind": 3}, "kind", str)
    assert str(exc.value).startswith("config key 'metric': config key 'kind'")
    assert exc.value.key == "metric"


def test_nested_names_the_key_of_any_failure_inside():
    for failure in (SensanError("bad shape"), OSError("no such file")):
        with pytest.raises(ConfigError, match="config key 'csv': .*"):
            with nested("csv"):
                raise failure
