"""The package-data globs in pyproject.toml and the files under data/ agree.

setuptools silently ignores a glob that matches nothing, so a stale entry
(or a data file no glob ships) would otherwise go unnoticed.
"""

import pathlib

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inferbench"


def _globs():
    with open(ROOT / "pyproject.toml", "rb") as f:
        doc = tomllib.load(f)
    return doc["tool"]["setuptools"]["package-data"]["inferbench"]


def test_every_package_data_glob_matches_a_file():
    for pattern in _globs():
        assert list(PACKAGE.glob(pattern)), f"{pattern!r} matches no file"


def test_every_data_file_is_shipped():
    shipped = {p for pattern in _globs() for p in PACKAGE.glob(pattern)}
    data = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert sorted(map(str, data - shipped)) == []
