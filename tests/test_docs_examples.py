"""Execute every fenced Python example in ``docs/*.md``.

The docs promise that their snippets run against the current API; this test
makes the promise enforceable.  For each markdown file, every ` ```python `
fenced block is extracted and executed top-to-bottom in one shared namespace
(so later blocks may build on earlier ones, like a narrative), inside a
temporary working directory (so snippets that write files cannot dirty the
repo).  Shell/text blocks are documentation only and are not executed —
except that every ``python -m repro.serve ...`` line quoted anywhere in the
README, the serving/operations pages or the CLI's own module docstring must
still *parse* (nothing is served), so a removed or renamed flag cannot linger.

A failing block reports the file, the block's ordinal and the offending
source, so a doc rotting against an API change fails loudly and points at
itself.
"""

from __future__ import annotations

import importlib
import os
import re
import shlex

import pytest

DOCS_DIR = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "docs"))
REPO_DIR = os.path.dirname(DOCS_DIR)

#: ```python ... ``` fences (tilde fences are not used in this repo's docs).
_PYTHON_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$",
                           re.MULTILINE | re.DOTALL)


def _doc_files() -> list[str]:
    if not os.path.isdir(DOCS_DIR):
        return []
    return sorted(name for name in os.listdir(DOCS_DIR)
                  if name.endswith(".md"))


def extract_python_blocks(markdown: str) -> list[str]:
    """The source of every ` ```python ` fenced block, in document order."""
    return [match.group(1) for match in _PYTHON_FENCE.finditer(markdown)]


def test_docs_directory_has_examples():
    """The docs tree exists and at least one page carries executable code."""
    files = _doc_files()
    assert files, f"no markdown files under {DOCS_DIR}"
    total = 0
    for name in files:
        with open(os.path.join(DOCS_DIR, name)) as handle:
            total += len(extract_python_blocks(handle.read()))
    assert total > 0, "docs/ contains no executable ```python examples"


@pytest.mark.parametrize("name", _doc_files())
def test_docs_examples_execute(name, tmp_path, monkeypatch):
    """Every Python block of one docs page executes without raising."""
    with open(os.path.join(DOCS_DIR, name)) as handle:
        blocks = extract_python_blocks(handle.read())
    if not blocks:
        pytest.skip(f"{name} has no Python examples")
    monkeypatch.chdir(tmp_path)  # snippets writing files stay in the sandbox
    namespace: dict = {"__name__": f"docs_example_{name.removesuffix('.md')}"}
    for ordinal, source in enumerate(blocks, start=1):
        try:
            exec(compile(source, f"docs/{name}[block {ordinal}]", "exec"),
                 namespace)
        except Exception as error:  # pragma: no cover - the message is the point
            pytest.fail(
                f"docs/{name}, Python block {ordinal} failed with "
                f"{type(error).__name__}: {error}\n--- block source ---\n"
                f"{source}")


def test_module_map_names_exist():
    """Every backticked name in a ``repro/serve/<file>.py`` row of the
    "Module map" table in ``docs/architecture.md`` is an attribute of that
    module, so the table cannot keep listing a deleted class."""
    with open(os.path.join(DOCS_DIR, "architecture.md")) as handle:
        table = handle.read().split("## Module map", 1)[1]
    rows = re.findall(r"^\| `repro/serve/(\w+)\.py` \|(.*)\|$", table,
                      re.MULTILINE)
    assert rows, "no repro/serve rows in the Module map table"
    for stem, surface in rows:
        module = importlib.import_module(f"repro.serve.{stem}")
        names = [name for name in re.findall(r"`([^`]+)`", surface)
                 if name.isidentifier()]
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (f"docs/architecture.md lists {missing} under "
                             f"repro/serve/{stem}.py, which has no such names")


#: Where ``python -m repro.serve`` invocations are quoted for users.
_CLI_SOURCES = ("README.md", "docs/serving.md", "docs/operations.md",
                "src/repro/serve/__main__.py")


def extract_serve_commands(text: str) -> list[str]:
    """The argument string of every ``python -m repro.serve`` line in ``text``,
    with backslash-continued lines joined."""
    joined = re.sub(r"\\\n", " ", text)
    return [match.group(1) for match in
            re.finditer(r"^[ \t]*python -m repro\.serve\b(.*)$", joined,
                        re.MULTILINE)]


@pytest.mark.parametrize("source", _CLI_SOURCES)
def test_documented_serve_commands_parse(source, capsys):
    """Every quoted CLI line is accepted by the current argument parser."""
    from repro.serve.__main__ import build_parser

    with open(os.path.join(REPO_DIR, source)) as handle:
        commands = extract_serve_commands(handle.read())
    assert commands, f"{source} quotes no `python -m repro.serve` line"
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command, comments=True))
        except SystemExit:
            pytest.fail(f"{source} documents `python -m repro.serve{command}`, "
                        f"which no longer parses: "
                        f"{capsys.readouterr().err.strip().splitlines()[-1]}")
