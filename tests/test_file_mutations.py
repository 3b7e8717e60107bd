"""Every one-field mutation of a small model file, of a tree and a linear
shadow file and of one metadata record, drawn as below, ends in exit 0, or
in exit 1 with exactly one ``error:`` line on stderr; no stderr line
reaches ``test_config_mutations.ERROR_WIDTH`` characters, and no
exception escapes ``cli.main``.

A file's fields are its keys at every level and, of each list, the first
and the last entry and what they hold.  Each field is set to
``VALUES_PER_FIELD`` values drawn from ``test_config_mutations.VALUES``
and deletion, by a seeded generator, and each object gets one unknown
key: about 600 runs of the command that reads the file, most ending at
the file check.
"""

import copy
import json
import random

import numpy as np
import pytest

from reclens.cli import main

from conftest import write_metadata_jsonl, write_ratings_csv
from test_config_mutations import VALUES, _at, broken_contract

VALUES_PER_FIELD = 4


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 4-user, 5-item ratings file, its metadata, a rank-2 model and a
    depth-2 tree shadow and a linear shadow of it."""
    d = tmp_path_factory.mktemp("files")
    rng = np.random.default_rng(5)
    write_ratings_csv(d / "ratings.csv", [
        (f"u{u}", f"m{i}", int(rng.integers(1, 6)), 0)
        for u in range(4) for i in range(5)
    ])
    write_metadata_jsonl(d / "meta.jsonl", {
        f"m{i}": {"genre": ["a", "b"][: 1 + i % 2], "era": [f"e{i % 3}"]}
        for i in range(5)
    })
    model, meta = str(d / "model.json"), str(d / "meta.jsonl")
    assert main(["train", "--ratings", str(d / "ratings.csv"), "--rank", "2",
                 "--iters", "3", "--out", model]) == 0
    for kind, flags in (("tree", ["--depth", "2"]), ("linear", [])):
        assert main(["shadow", "--model", model, "--metadata", meta, "--kind",
                     kind, *flags, "--out", str(d / f"{kind}.json")]) == 0
    return d


def _fields(doc, prefix=()):
    """The key path of every field of ``doc``, of a list only its first
    and last entry, each before the fields it holds."""
    keys = doc if isinstance(doc, dict) else sorted({0, len(doc) - 1} if doc else ())
    for key in keys:
        yield prefix + (key,)
        if isinstance(doc[key], (dict, list)):
            yield from _fields(doc[key], prefix + (key,))


def mutations(doc, seed):
    """(label, mutated copy of ``doc``): each field set to a few drawn
    values or deleted, and one unknown key added to each object."""
    draw = random.Random(seed)
    paths = list(_fields(doc))
    for path in paths:
        label = ".".join(map(str, path))
        for value in draw.sample(VALUES + ["delete"], VALUES_PER_FIELD):
            mutated = copy.deepcopy(doc)
            if value == "delete":
                del _at(mutated, path[:-1])[path[-1]]
            else:
                _at(mutated, path[:-1])[path[-1]] = value
            yield f"{label}={value!r:.24}", mutated
    for path in [(), *(p for p in paths if isinstance(_at(doc, p), dict))]:
        mutated = copy.deepcopy(doc)
        _at(mutated, path)["extra"] = 1
        yield ".".join(map(str, path)) + " +extra", mutated


# The command that reads each file; {d} holds the intact files and {f} is
# the mutated one.
COMMANDS = {
    "model.json": ["shadow", "--model", "{f}", "--metadata", "{d}/meta.jsonl",
                   "--kind", "linear", "--out", "{d}/out.json"],
    "tree.json": ["explain", "--shadow", "{f}", "--metadata", "{d}/meta.jsonl",
                  "--user", "u1", "--item", "m2"],
    "linear.json": ["explain", "--shadow", "{f}", "--metadata", "{d}/meta.jsonl",
                    "--user", "u1", "--user-aggregate"],
    "meta.jsonl": ["shadow", "--model", "{d}/model.json", "--metadata", "{f}",
                   "--kind", "tree", "--depth", "2", "--out", "{d}/out.json"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_file_mutations(files, tmp_path, capsys, name):
    mutated_path = tmp_path / name
    argv = [a.format(d=files, f=mutated_path) for a in COMMANDS[name]]
    if name == "meta.jsonl":
        # One record, the second, is mutated; the others stay as they are.
        lines = (files / name).read_text().splitlines()
        doc = json.loads(lines[1])

        def write(record):
            lines[1] = json.dumps(record)
            mutated_path.write_text("\n".join(lines) + "\n")
    else:
        doc = json.loads((files / name).read_text())

        def write(mutated):
            mutated_path.write_text(json.dumps(mutated))
    write(doc)
    assert broken_contract(argv, capsys) is None
    broken = []
    for label, mutated in mutations(doc, seed=name):
        write(mutated)
        problem = broken_contract(argv, capsys)
        if problem:
            broken.append(f"{label}: {problem}")
    assert not broken, "\n".join(broken)
