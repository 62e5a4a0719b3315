"""Every public function and method of the library is used by the library
or the benchmark (``perfbench/``): code that only tests call, the test
oracle (``tests/oracle.py``) included, lives in the oracle or in the test
that uses it.

References are read from the syntax trees by name, so they are
approximate: a function counts as referenced when its name is read as a
name or as an attribute anywhere in those files, and a method only when
its name is read as an attribute (``x.div``), so that a local variable of
the same name does not count.

An attribute read cannot tell which class it reaches, so a method whose
name another library class also defines, as a method, a property or a
field, is not counted by its reads.  Each such name is listed in
``SHARED`` with every class that defines it: a shared interface that the
library reads through any of those classes.  The table must match the
definitions exactly, so a new collision of names, and a method put back
under a name that is already shared, fail here until the table is
changed on purpose.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "cubiclines"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

FIELD_LEVELS = ("fields.FiniteLevel", "fields.Rationals")

# name -> every library class that defines it, for the public methods
# whose name another class also defines
SHARED = {
    # the field protocol of the tower levels
    **{name: FIELD_LEVELS for name in (
        "add", "embed_from", "from_int", "inv", "min_subfield", "neg",
        "pack", "pow_", "sub", "unpack")},
    "is_zero": FIELD_LEVELS + ("poly.MultiPoly",),
    "zero": FIELD_LEVELS + ("poly.MultiPoly",),
    "descend": ("cubic.ProjLine",) + FIELD_LEVELS,
    "key": ("cubic.ProjLine",) + FIELD_LEVELS,
    "mul": ("chow.ChowExpr",) + FIELD_LEVELS,
    # the towers' levels, and the level of a result
    "level": ("curves.MeetingPoint", "fano.LineCensus", "fields.FieldTower",
              "fields.FiniteLevel", "fields.RationalTower",
              "fields.Rationals", "secant.SecantLine"),
    # the flag that a search found every solution
    "complete": ("bihom.BihomSolutions", "cubic.LinesThroughPoint",
                 "curves.CurveValidation", "curves.MeetingData",
                 "poly.RootMultiset", "secant.SecantReport"),
    "degree": ("fano.DiscriminantCurve", "poly.MultiPoly"),
    "scale": ("chow.ChowExpr", "poly.MultiPoly"),
    "to_json": ("fano.LineCensus", "secant.SecantReport"),
}


def library_classes():
    """(qualified class name, class node) for each module-level class of
    the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                yield "%s.%s" % (path.stem, node.name), node


def public_definitions():
    """(qualified name, is a method) for each public module-level function
    and each public method of a module-level class of the library."""
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                yield "%s.%s" % (path.stem, node.name), False
    for cls, node in library_classes():
        for item in node.body:
            if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                yield "%s.%s" % (cls, item.name), True


def members(node):
    """The names a class defines: its methods and properties, the fields
    assigned in its body and the attributes its methods set on self."""
    out = set()
    for item in node.body:
        if isinstance(item, FUNCTIONS):
            out.add(item.name)
            out.update(
                n.attr for n in ast.walk(item)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self")
        elif (isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)):
            out.add(item.target.id)
        elif isinstance(item, ast.Assign):
            out.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return out


def shared_names():
    """name -> the sorted classes that define it, for each public method
    name that more than one class defines."""
    defined = collections.defaultdict(set)
    for cls, node in library_classes():
        for name in members(node):
            defined[name].add(cls)
    methods = {qualname.rsplit(".", 1)[1]
               for qualname, is_method in public_definitions() if is_method}
    return {name: tuple(sorted(defined[name])) for name in methods
            if len(defined[name]) > 1}


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


def test_shared_names_match_the_table():
    want = {name: tuple(sorted(classes)) for name, classes in SHARED.items()}
    assert shared_names() == want, (
        "public methods whose names other library classes also define "
        "changed; each shared name is listed in SHARED with its classes")


def test_every_public_function_is_referenced():
    names, attrs = references()
    unused = []
    for qualname, is_method in public_definitions():
        name = qualname.rsplit(".", 1)[1]
        if is_method and name in SHARED:
            continue
        if name not in attrs and (is_method or name not in names):
            unused.append(qualname)
    assert not unused, ("public functions that nothing in src/ or "
                        "perfbench/ calls: %s" % ", ".join(unused))
    assert not set(SHARED) - attrs, "a shared name that nothing reads"
