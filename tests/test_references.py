"""Every public function and method of the library is used by the library
or the benchmark (``perfbench/``): code that only tests call, the test
oracle (``tests/oracle.py``) included, lives in the oracle or in the test
that uses it.

References are read from the syntax trees by name, so they are
approximate: a function counts as referenced when its name is read as a
name or as an attribute anywhere in those files, and a method only when
its name is read as an attribute (``x.div``), so that a local variable of
the same name does not count.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "cubiclines"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions():
    """(qualified name, is a method) for each public module-level function
    and each public method of a module-level class of the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield "%s.%s" % (path.stem, node.name), False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, FUNCTIONS)
                            and not item.name.startswith("_")):
                        yield ("%s.%s.%s" % (path.stem, node.name, item.name),
                               True)


def references():
    """The names and the attribute names read in the library and the
    benchmark."""
    files = (sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "perfbench").rglob("*.py")))
    names, attrs = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    return names, attrs


def test_every_public_function_is_referenced():
    names, attrs = references()
    unused = []
    for qualname, is_method in public_definitions():
        name = qualname.rsplit(".", 1)[1]
        if name not in attrs and (is_method or name not in names):
            unused.append(qualname)
    assert not unused, ("public functions that nothing in src/ or "
                        "perfbench/ calls: %s" % ", ".join(unused))
