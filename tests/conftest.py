"""Shared test helpers."""
from pathlib import Path

import pytest


def _read_csv(path):
    """Metadata dict, column names and numeric rows of a scenario CSV."""
    metadata, table = {}, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
        else:
            table.append(line.split(","))
    return metadata, table[0], [[float(x) for x in row] for row in table[1:]]


@pytest.fixture
def read_csv():
    return _read_csv
