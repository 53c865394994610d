"""Tests of the exported-name rule in ``scripts/check_docs.py``: every name
a package exports needs a consumer outside ``tests/``.  The repositories
here are tiny synthetic trees; no docs are checked."""

import os
import runpy

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "scripts", "check_docs.py")
unused_exports = runpy.run_path(GATE)["unused_exports"]


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def tiny_repo(root):
    """A package exporting one name of each kind, and its consumers."""
    write(root, "src/tiny/__init__.py", '''"""Tiny package: ``documented`` is only named here."""

from tiny.core import documented, registered, tested, unused, used

__all__ = ["used", "unused", "registered", "documented", "tested"]
''')
    write(root, "src/tiny/core.py", '''"""The exported names."""


def register(name):
    return lambda fn: fn


def used():
    """Called by a benchmark."""


def unused():
    """Called by nothing."""


@register("plugin")
def registered():
    """Reached through its decorator."""


def documented():
    """Named only in docstrings."""


def tested():
    """Called only under tests/."""
''')
    write(root, "benchmarks/bench_tiny.py", '''"""Runs ``documented`` (a docstring, not a use)."""

from tiny import used

used()
''')
    write(root, "tests/test_tiny.py", '''from tiny import tested

tested()
''')


def test_reports_exactly_the_unused_the_documented_and_the_test_only_names(tmp_path):
    tiny_repo(tmp_path)
    assert sorted(unused_exports(str(tmp_path))) == [
        ("tiny", "documented"),
        ("tiny", "tested"),
        ("tiny", "unused"),
    ]


def test_a_string_naming_the_export_is_a_use(tmp_path):
    tiny_repo(tmp_path)
    write(tmp_path, "perfbench/layers.py", 'SPANS = [("tiny.core", "tested", "tiny.run")]\n')
    assert ("tiny", "tested") not in unused_exports(str(tmp_path))



@pytest.mark.parametrize("top", ["src", "benchmarks", "examples", "perfbench", "scripts"])
def test_a_call_from_any_consumer_directory_is_a_use(tmp_path, top):
    tiny_repo(tmp_path)
    write(tmp_path, f"{top}/consumer.py", "from tiny import unused\n\nunused()\n")
    assert ("tiny", "unused") not in unused_exports(str(tmp_path))


@pytest.mark.parametrize(
    "code",
    [
        "import tiny\n\ntiny.unused()\n",
        "import tiny\n\nhandler = getattr(tiny, 'unused')\n",
        "HOOKS = {'unused': None}\n",
        "from tiny import unused\n\n\n@unused\ndef wrapped():\n    pass\n",
    ],
    ids=["attribute", "getattr-string", "string-key", "decorator"],
)
def test_names_attributes_and_strings_are_uses(tmp_path, code):
    tiny_repo(tmp_path)
    write(tmp_path, "scripts/consumer.py", code)
    assert ("tiny", "unused") not in unused_exports(str(tmp_path))


def test_package_init_code_other_than_imports_is_a_use(tmp_path):
    # a factory table in the package __init__ (as repro.mobility keeps) counts
    tiny_repo(tmp_path)
    init = tmp_path / "src/tiny/__init__.py"
    init.write_text(init.read_text() + "\nFACTORIES = {\"plugin\": unused}\n")
    assert ("tiny", "unused") not in unused_exports(str(tmp_path))


@pytest.mark.parametrize(
    "code",
    [
        "from tiny import unused\n",
        "__all__ = ['unused']\n",
        '"""Calls ``unused()``."""\n',
        "# unused()\n",
        'def helper():\n    """Wraps ``unused``."""\n',
    ],
    ids=["import", "all-list", "module-docstring", "comment", "function-docstring"],
)
def test_imports_export_lists_docstrings_and_comments_are_not_uses(tmp_path, code):
    tiny_repo(tmp_path)
    write(tmp_path, "scripts/consumer.py", code)
    assert ("tiny", "unused") in unused_exports(str(tmp_path))


def test_every_export_of_this_repository_has_a_consumer():
    assert unused_exports(REPO) == []
