import json
import math

import numpy as np
import pytest

from sensan.cli import main
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


def test_an_integer_past_the_float_range_reads_as_that_integer():
    """2^1100 has no float: an integer key takes it exactly, a number key
    refuses it as not finite."""
    big = 2 ** 1100
    got = read({"k": big}, "k", int, lo=0)
    assert got == big and type(got) is int
    assert type(read({"k": np.int64(7)}, "k", int)) is int
    with pytest.raises(ConfigError, match=f"config key 'k': expected a number, "
                       f"got {big}$"):
        read({"k": big}, "k", float)


@pytest.mark.parametrize("where", ["seed", "probs"])
def test_mc_joint_takes_a_seed_past_the_float_range(tmp_path, capsys, where):
    """`sensan mc` in joint mode runs with "seed": 2^1100, each replication
    drawn from SeedSequence((seed, n, rep)); the same integer as a
    probability exits 2 naming the item."""
    big, n, reps = 2 ** 1100, 300, 6
    probs = [0.5, 0.3, 0.2] if where == "seed" else [0.5, 0.3, big]
    cfg = {"distribution": {"family": "multinomial", "probs": probs},
           "cells": [2, 0], "mode": "joint", "n": n, "reps": reps,
           "seed": big if where == "seed" else 3}
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg))
    code = main(["mc", "--config", str(path), "--out", str(tmp_path / "out")])
    if where == "probs":
        assert code == 2
        assert ("config key 'probs': item 2: expected a number"
                in capsys.readouterr().err)
        return
    assert code == 0
    rows = (tmp_path / "out" / "table.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
    want = np.empty((reps, 2))
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((big, n, rep)))
        counts = rng.multinomial(n, probs)
        want[rep] = counts[2] / n, counts[0] / n
    assert got.tobytes() == want.tobytes()


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
