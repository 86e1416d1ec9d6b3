import ast
from pathlib import Path

import pytest

import heartstack
from heartstack.errors import ConfigError
from heartstack.reporting import write_file

SOURCE = Path(heartstack.__file__).parent


def test_write_file_makes_the_parent_and_writes_text_as_utf8_or_bytes_as_they_are(tmp_path):
    write_file(tmp_path / "a" / "b" / "t.txt", "é\n")
    write_file(tmp_path / "a" / "bin", b"\xff\x00")
    assert (tmp_path / "a" / "b" / "t.txt").read_bytes() == "é\n".encode("utf8")
    assert (tmp_path / "a" / "bin").read_bytes() == b"\xff\x00"


@pytest.mark.parametrize("target", ["a_dir", "a_file/x.txt"])
def test_refused_write_is_a_config_error_naming_the_path(target, tmp_path):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    with pytest.raises(ConfigError, match=f"cannot write {tmp_path / target}: "):
        write_file(tmp_path / target, "x")


def _writes(node, module, function=None):
    """(module, enclosing function) of every call under ``node`` that
    writes a file: ``.write_text(``, ``.write_bytes(``, or ``open(`` (the
    builtin or a ``Path.open``) with a mode that is not a read mode."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            yield module, function
        elif name == "open":
            at = 0 if isinstance(func, ast.Attribute) else 1
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            mode = modes[0] if modes else ast.Constant("r")
            if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                yield module, function
    for child in ast.iter_child_nodes(node):
        yield from _writes(child, module, function)


def test_only_write_file_writes_files():
    found = [w for path in sorted(SOURCE.rglob("*.py"))
             for w in _writes(ast.parse(path.read_text()), path.relative_to(SOURCE).as_posix())]
    assert found == [("reporting.py", "write_file")]
