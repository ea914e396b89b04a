"""Static rules for the library source, checked on its syntax tree.

No `assert` statements: `python -O` strips them, so a check that must
hold raises explicitly.  No third-party imports: the runtime is
stdlib-only, so every import is relative or names a stdlib module.
No module-level function name is defined in two modules, so a helper
has one copy that every caller imports.  Every module-level private
function is referenced in the library outside its own definition, so a
helper is deleted with its last caller.  Every exception handler outside
cli.main ends by raising, so no library exception steers control flow.
Every name a library module imports is read in that module, so an
import goes with its last use; the one exception is __version__, which
__init__.py binds for importers to read.  __init__.py binds nothing
else: each name is imported from the module that defines it, so the
package namespace re-exports nothing that a rename would have to follow.
Every module-level ALL_CAPS constant that a function raising ScopeError
reads is named in README as module.NAME, so each scope budget or limit
that can end a request with exit 3 is documented.  No call hands a
field's elements(), or a range over a field size, to list, tuple or
itertools.product, which would build one object per element of the
field; a field hands out its i-th element with element_at(i).
Only poly, factoring and points name integer forms (int_form and the
_int_list_* helpers), and brauer calls no evaluate: the rest of the
library reads values at a point off points.unit_part_at.
No library function but poly._power shifts an exponent with >>=, so
square-and-multiply is written once and every power goes through it.
No library function but poly._gcd, poly._xgcd and poly.resultant runs
a while loop that rebinds a pair as x, y = y, ..., so Euclid's
algorithm is written once, over a ring, and every gcd goes through it.
Every annotated field of a library @dataclass is read as .field
somewhere in the library, so a record carries nothing no code looks at.
The body of distinguish.distinguish names none of same_class, same_field,
same_kummer_extension, is_pth_power or is_pth_power_finite: it reads its
residue comparison off the compare_classes record and tests no residue
itself.
"""

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brauercalc"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _nodes():
    assert SOURCES, "no library sources found"
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements():
    hits = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert not hits, f"assert statements (stripped by python -O): {hits}"


def test_imports_are_relative_or_stdlib():
    bad = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                bad.append(f"{name}:{node.lineno} imports {module}")
    assert not bad, f"non-stdlib imports: {bad}"


def test_module_level_functions_are_defined_once():
    homes = defaultdict(list)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.name)
    dups = {name: files for name, files in homes.items() if len(files) > 1}
    assert not dups, f"functions defined in more than one module: {dups}"


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_private_functions_are_referenced():
    private, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = set(_referenced_names(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    private.append((path.name, node.name))
                # a recursive call does not keep a function alive
                names.discard(node.name)
            used |= names
    assert private, "no private functions found"
    orphans = [f"{name}:{fn}" for name, fn in private if fn not in used]
    assert not orphans, f"private functions no library code references: {orphans}"


def test_exception_handlers_reraise():
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        if path.name == "cli.py":
            # main() maps exceptions to exit codes
            (main,) = [n for n in tree.body if getattr(n, "name", None) == "main"]
            exempt = {id(n) for n in ast.walk(main)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ExceptHandler)
                and id(node) not in exempt
                and not isinstance(node.body[-1], ast.Raise)
            ):
                bad.append(f"{path.name}:{node.lineno}")
    assert not bad, f"exception handlers that do not end by raising: {bad}"


def test_library_imports_are_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused.extend(
            f"{path.name}:{n} {name}"
            for name, n in bound.items()
            if name not in read and name != "__version__"
        )
    assert not unused, f"imported names the module never reads: {unused}"


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[0]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_package_namespace_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = sorted(set(_bound_names(tree)))
    assert bound == ["__version__"], f"__init__.py binds {bound}, not only __version__"


def _raises_scope_error(func):
    for node in ast.walk(func):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ScopeError":
                return True
    return False


def test_scope_budgets_are_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    caps = re.compile(r"_?[A-Z][A-Z0-9_]*")
    missing = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        constants = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and caps.fullmatch(target.id)
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _raises_scope_error(func):
                continue
            for name in set(_referenced_names(func)) & constants:
                documented = f"{path.stem}.{name}"
                if documented not in readme:
                    missing.append(f"{documented} (read by {func.name})")
    assert not missing, f"scope limits missing from README: {sorted(set(missing))}"


# Names that hold a field size in the library: an order, a characteristic,
# or the p and q of F_p and F_q.
_FIELD_SIZES = {"order", "char", "p", "q"}
# (module, function) where such a name is no field size: in
# enumerate_candidates p is the exponent of the class, and the
# (p - 1)^r tuples are checked against MAX_CANDIDATE_BOUND first.
_NOT_FIELD_SIZES = {("distinguish.py", "enumerate_candidates")}


def _lists_a_field(arg):
    for node in ast.walk(arg):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr == "elements":
            return True
        if isinstance(node.func, ast.Name) and node.func.id == "range":
            bounds = {n for a in node.args for n in _referenced_names(a)}
            if bounds & _FIELD_SIZES:
                return True
    return False


def _is_materializing(func):
    if isinstance(func, ast.Name):
        return func.id in ("list", "tuple", "product")
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "product"
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    )


def test_no_field_is_listed():
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = {
            id(n)
            for func in tree.body
            if (path.name, getattr(func, "name", None)) in _NOT_FIELD_SIZES
            for n in ast.walk(func)
        }
        hits.extend(
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and id(node) not in exempt
            and _is_materializing(node.func)
            and any(_lists_a_field(a) for a in node.args)
        )
    assert not hits, f"calls that list a finite field: {hits}"


# Modules that may work on integer forms; the rest read local values
# through points.unit_part_at.
_INT_FORM_MODULES = {"poly.py", "factoring.py", "points.py"}


def test_integer_forms_stay_in_poly_factoring_and_points():
    hits = []
    for name, node in _nodes():
        if isinstance(node, ast.Name):
            named = node.id
        elif isinstance(node, ast.Attribute):
            named = node.attr
        elif isinstance(node, ast.alias):
            named = node.name
        else:
            continue
        if name not in _INT_FORM_MODULES and (
            named == "int_form" or named.startswith("_int_list_")
        ):
            hits.append(f"{name}:{node.lineno} names {named}")
        if name == "brauer.py" and named == "evaluate":
            hits.append(f"{name}:{node.lineno} calls evaluate")
    assert not hits, f"integer forms or evaluation outside their modules: {hits}"


def test_square_and_multiply_is_written_once():
    owners = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # breadth first: an inner function overwrites its outer one's name
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
                    owners[f"{path.name}:{node.lineno}"] = f"{path.stem}.{func.name}"
    hits = [f"{where} in {owner}" for where, owner in owners.items() if owner != "poly._power"]
    assert not hits, f"square-and-multiply outside poly._power: {hits}"
    assert owners, "poly._power shifts no exponent"


def _swaps_a_pair(node):
    """Whether node is an assignment x, y = y, ... of a pair."""
    return (
        isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Tuple)
        and isinstance(node.value, ast.Tuple)
        and len(node.targets[0].elts) == len(node.value.elts) == 2
        and all(isinstance(e, ast.Name) for e in node.targets[0].elts)
        and isinstance(node.value.elts[0], ast.Name)
        and node.value.elts[0].id == node.targets[0].elts[1].id
    )


# Euclid's algorithm and the resultant's degree swap, the loops that may
# rebind a pair as x, y = y, ...
_EUCLID = {"poly._gcd", "poly._xgcd", "poly.resultant"}


def test_euclid_is_written_once():
    owners = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # breadth first: an inner function overwrites its outer one's name
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in ast.walk(func):
                if isinstance(loop, ast.While) and any(map(_swaps_a_pair, ast.walk(loop))):
                    owners[f"{path.name}:{loop.lineno}"] = f"{path.stem}.{func.name}"
    hits = [f"{where} in {owner}" for where, owner in owners.items() if owner not in _EUCLID]
    assert not hits, f"Euclid loops outside poly._gcd and poly._xgcd: {hits}"
    assert {"poly._gcd", "poly._xgcd"} <= set(owners.values()), "no Euclid loop in poly"


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_record_fields_are_read():
    fields, read = [], set()
    for name, node in _nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields.extend(
                (f"{name[:-3]}.{node.name}", item.target.id)
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
    assert fields, "no dataclass fields found"
    unread = [f"{owner}.{field}" for owner, field in fields if field not in read]
    assert not unread, f"record fields no library code reads: {unread}"


_RESIDUE_TESTS = {
    "same_class", "same_field", "same_kummer_extension", "is_pth_power",
    "is_pth_power_finite",
}


def test_distinguish_tests_no_residue_itself():
    tree = ast.parse((PACKAGE / "distinguish.py").read_text(encoding="utf-8"))
    (func,) = [n for n in tree.body if getattr(n, "name", None) == "distinguish"]
    named = sorted(set(_referenced_names(func)) & _RESIDUE_TESTS)
    assert not named, f"distinguish.distinguish tests residues itself: {named}"
