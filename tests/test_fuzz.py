"""Every file reader fails closed on corrupt input.

Each reader gets a valid small file after truncation, byte flips, byte
inserts and non-UTF-8 prefixes. It must return or raise one of the errors
that ``cli.main`` reports on one line with exit code 2.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import store_of
from mkgd.cli import INPUT_ERRORS
from mkgd.config import RunConfig, make_run_config
from mkgd.data import (
    SyntheticTaskSpec,
    Vocab,
    build_vocab,
    load_graph,
    load_task_pool,
    save_task_pool,
    synth_raw_tasks,
    tokenize,
)
from mkgd.params import load_checkpoint, save_checkpoint

NON_UTF8_PREFIXES = (b"\xff\xfe", b"\xfe\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80")

MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("prefix"), st.sampled_from(NON_UTF8_PREFIXES)),
)


def mutate(data, mutations):
    data = bytearray(data)
    for kind, *args in mutations:
        if kind == "truncate":
            del data[args[0] % (len(data) + 1):]
        elif kind == "flip" and data:
            data[args[0] % len(data)] ^= args[1]
        elif kind == "insert":
            at = args[0] % (len(data) + 1)
            data[at:at] = args[1]
        elif kind == "prefix":
            data[:0] = args[0]
    return bytes(data)


def write_checkpoint(path):
    store = store_of({
        "model.embed.W": np.arange(6.0).reshape(2, 3),
        "model.out.b": [0.5, -1.0, 2.0],
        "scalar": 4.0,
    })
    save_checkpoint(path, store)


def write_vocab(path):
    build_vocab(tokenize("a b b c"), 10).save(path)


def write_pool(path):
    save_task_pool(path, synth_raw_tasks(SyntheticTaskSpec(seed=0, n_samples=2), 2))


def write_graph(path):
    path.write_text(json.dumps({"goal": ["[start]", "a", "b"],
                                "knowledge": [["a", "r", "b"], ["a", "s", "c"]]}),
                    encoding="utf-8")


def write_config(path):
    path.write_text("# desk run\nembed_dim=8\nalpha=0.01\ninner_optimizer=sgd\n\nseed=3\n",
                    encoding="utf-8")


def read_config(path):
    return make_run_config(preset="desk", config_path=path)


READERS = {
    "checkpoint": (write_checkpoint, load_checkpoint),
    "vocab": (write_vocab, Vocab.load),
    "pool": (write_pool, load_task_pool),
    "graph": (write_graph, load_graph),
    "config": (write_config, read_config),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_fails_closed(reader, path):
    try:
        reader(path)
    except INPUT_ERRORS:
        pass


@pytest.mark.parametrize("name", sorted(READERS))
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_reader_returns_or_raises_an_input_error(workdir, name, mutations):
    write, reader = READERS[name]
    valid = workdir / f"valid.{name}"
    write(valid)
    reader(valid)  # the unmutated file reads cleanly
    corrupt = workdir / f"corrupt.{name}"
    corrupt.write_bytes(mutate(valid.read_bytes(), mutations))
    read_fails_closed(reader, corrupt)


CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(RunConfig))
# Value types and syntax only: small numbers, so no huge dimension reaches a model.
CONFIG_VALUE = st.one_of(
    st.integers(-3, 64).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["sgd", "adam", "true", "", "1e3", "0x10", "7 # note"]),
    st.text(max_size=8),
)
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUE).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.text(max_size=12),
)


@given(lines=st.lists(CONFIG_LINE, max_size=6))
def test_config_values_return_or_raise_an_input_error(workdir, lines):
    path = workdir / "values.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    read_fails_closed(read_config, path)
