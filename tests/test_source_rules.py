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
that can end a request with exit 3 is documented.  The reverse holds
too (test_readme_names_only_constants_that_exist): every module.NAME that
README names in backticks is a module-level constant of that module, and
a value README quotes after it as = 10^6 or = 65536 is the constant's, so
README names no deleted knob and no stale value.  No call hands a
field's elements(), or a range over a field size, to list, tuple or
itertools.product, which would build one object per element of the
field; a field hands out its i-th element with element_at(i).
Only poly, factoring and points name integer forms (int_form and the
_int_list_* helpers), and brauer calls no evaluate: the rest of the
library reads values at a point off points.unit_part_at.  A polynomial's
_int_form is written only by Poly itself, in Poly._q or on first read in
Poly.__getattr__, so no caller patches an integer form onto a polynomial.
The bodies of points.unit_part_at and points.tame_symbol_at name neither
int_form nor evaluate, so every value at a point goes through
points._strip and points._combine.
No library function but poly._power shifts an exponent with >>=, so
square-and-multiply is written once and every power goes through it.
No library function but poly._euclid runs a while loop that rebinds a
pair as x, y = y, ..., so Euclid's algorithm is written once, over a
ring, and every gcd, Bezout cofactor and resultant is read off it.
Every field of a library record (a class deriving from errors.Record:
each __slots__ entry not starting with an underscore) is read as .field
somewhere in the library, so a record carries nothing no code looks at.
No library module imports dataclasses: a record is a Record subclass,
so importing the library compiles no generated method.
The body of distinguish.distinguish names none of same_class, same_field,
same_kummer_extension, is_pth_power or is_pth_power_finite: it reads its
residue comparison off the compare_classes record and tests no residue
itself.
Only points._point calls ClosedPoint(...), or cls(...) inside the
ClosedPoint class, so every point the library builds is the one shared
object of its base and factor.
Only fields and residues name is_pth_power_finite or pth_power_exponent:
every other module decides an F_q residue through residues, which reads
its norm in F_q and takes no power in a residue field.
Only fields and residues name multiplicative_generator: every power of
the fixed generator of a residue field is residues.generator_power.
No library class but poly._ListRing and poly._PrimitiveRing binds both
deg and divmod, as methods or class attributes: K[t] has one ring per
representation, coefficient lists over Z/p or a field, and primitive
integer lists for Q[t] up to units.
In poly only _zmul, _zdivmod, _int_list_pseudo_divmod and
lagrange_interpolate nest one for loop inside another, and in
fields.QuotientField only _mul: the product and the division of
coefficient lists are written once, for every coefficient ring.
Each field chooses its list ring (test_each_field_chooses_its_list_ring):
outside poly and fields no module builds _ListRing with a field or tests
isinstance against PrimeField, and factoring builds _ListRing(p) only in
its modular stage over Q (_prime_search, _zassenhaus, _hensel_lift), so
every other finite-field polynomial algorithm reads field.list_ring and
the choice of F_p's integer coefficients is made in fields alone.
No string in the library but a docstring holds \\d, \\D, \\w or \\W
(test_patterns_read_ascii_digits_only): those classes match the digits
and letters of every script, and int() reads U+0663 as 3, so a pattern
spells out [0-9] and the characters it means.
No library module reads Fraction's private _numerator or _denominator, or
passes _normalize= (test_no_fraction_internals): they are CPython's
internals, not the fractions module's interface, so a faster rational
path goes through numerator, denominator and the public constructor.
Every top-level def or class, and every method but a dunder, is reached
from a caller (test_every_definition_is_reached), so code that only
tests call moves to tests/_oracles.py.  The roots are the
[project.scripts] entry points, every module body, the names README's
Library use blocks import and read, and the names bench/*.py reads; a
reached definition reaches every name its body reads.  Names are matched
without their module, so the rule errs toward keeping code.  The names in
_KEPT_UNREACHED stay unreached until a caller is written for them, and
the rule fails once one is reached.
"""

import ast
import importlib
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


# `module.NAME` in README, and the value quoted after it as " = 2^19"
_README_CONSTANT = re.compile(r"`([a-z_]+)\.(_?[A-Z][A-Z0-9_]*)`(?:\s*=\s*([0-9]+(?:\^[0-9]+)?))?")


def _stale_readme_constants(readme):
    """Each `module.NAME` in readme that is no module-level constant of
    that library module, or whose quoted value is not the constant's."""
    stale = []
    for module, name, quoted in _README_CONSTANT.findall(readme):
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else ast.Module([], [])
        constants = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        if name not in constants:
            stale.append(f"{module}.{name}")
        elif quoted:
            base, _, exp = quoted.partition("^")
            value = getattr(importlib.import_module(f"brauercalc.{module}"), name)
            if value != int(base) ** int(exp or 1):
                stale.append(f"{module}.{name} = {quoted}, but it is {value!r}")
    return stale


def test_readme_names_only_constants_that_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _README_CONSTANT.findall(readme), "README names no module constant"
    assert not _stale_readme_constants(readme), _stale_readme_constants(readme)
    planted = "`factoring._FEW_FACTORS` = 3 and `factoring._PRIME_BOUND` = 10^5"
    assert _stale_readme_constants(planted) == [
        "factoring._FEW_FACTORS", "factoring._PRIME_BOUND = 10^5, but it is 1000000"]


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


# Where Poly sets the integer form, the representation over QQ: the
# constructor from a form, and the first read of a Fraction-built one.
_INT_FORM_WRITERS = {"_q", "__getattr__"}


def test_integer_forms_are_written_only_by_poly():
    hits = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Poly"
            for item in cls.body
            if getattr(item, "name", None) in _INT_FORM_WRITERS
            or any(getattr(t, "id", None) == "__slots__" for t in getattr(item, "targets", ()))
            for node in ast.walk(item)
        }
        for node in ast.walk(tree):
            named = node.value == "_int_form" if isinstance(node, ast.Constant) else (
                isinstance(node, ast.Attribute) and node.attr == "_int_form"
                and not isinstance(node.ctx, ast.Load))
            if named and id(node) not in allowed:
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, f"integer forms written outside Poly._q and Poly.__getattr__: {hits}"


def test_local_expansions_only_strip_and_combine():
    tree = ast.parse((PACKAGE / "points.py").read_text(encoding="utf-8"))
    funcs = [n for n in tree.body if getattr(n, "name", None) in ("unit_part_at", "tame_symbol_at")]
    assert len(funcs) == 2, "points.unit_part_at or points.tame_symbol_at not found"
    hits = [
        f"{func.name} names {named}"
        for func in funcs
        for named in sorted(set(_referenced_names(func)))
        if named in ("int_form", "evaluate") or named.startswith("_int_list_")
    ]
    assert not hits, f"a value at a point read around _strip and _combine: {hits}"


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


# Euclid's algorithm, the one loop that may rebind a pair as x, y = y, ...
_EUCLID = {"poly._euclid"}


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
    assert not hits, f"Euclid loops outside poly._euclid: {hits}"
    assert set(owners.values()) == _EUCLID, "no Euclid loop in poly._euclid"


# The polynomial rings that Euclid, the squarefree loop and factoring run over.
_RINGS = {"poly._ListRing", "poly._PrimitiveRing"}


def _rings(tree, module):
    """{module.Class} for the classes of tree whose body binds deg and divmod."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        bound = set()
        for n in cls.body:
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(n.name)
            elif isinstance(n, ast.Assign):
                bound.update(e.id for t in n.targets for e in ast.walk(t) if isinstance(e, ast.Name))
        if {"deg", "divmod"} <= bound:
            found.add(f"{module}.{cls.name}")
    return found


def test_one_polynomial_ring_per_representation():
    found = set()
    for path in SOURCES:
        found |= _rings(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == _RINGS, f"classes binding deg and divmod: {found}"
    # a ring on Poly whose operations are class attributes is found too
    planted = "class _PolyRing:\n    deg, divmod = len, staticmethod(divmod)\n"
    assert _rings(ast.parse(planted), "poly") == {"poly._PolyRing"}


def _record_fields(sources):
    """{module.Class: its fields} for every class deriving from Record in
    sources (module name to text): its __slots__ entries but those starting
    with an underscore, which hold memos."""
    records = {}
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Record" for base in node.bases
            ):
                records[f"{module}.{node.name}"] = [
                    elt.value
                    for item in node.body
                    if any(getattr(t, "id", None) == "__slots__" for t in getattr(item, "targets", ()))
                    for elt in item.value.elts
                    if not elt.value.startswith("_")
                ]
    return records


def _unread_record_fields(sources):
    read = {
        node.attr
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{owner}.{field}"
        for owner, fields in _record_fields(sources).items()
        for field in fields
        if field not in read
    ]


def test_record_fields_are_read():
    import brauercalc.cli  # noqa: F401  (imports every module that defines a record)
    from brauercalc.errors import Record

    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    found = set(_record_fields(sources))
    built = {
        f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}" for cls in Record.__subclasses__()
    }
    assert found == built and len(found) == 17, f"records found {sorted(found)}, built {sorted(built)}"
    unread = _unread_record_fields(sources)
    assert not unread, f"record fields no library code reads: {unread}"
    plant = '\nclass Planted(Record):\n    __slots__ = ("never_read", "_memo")\n'
    planted = dict(sources, points=sources["points"] + plant)
    assert _unread_record_fields(planted) == ["points.Planted.never_read"]


def test_no_module_imports_dataclasses():
    hits = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert not hits, f"library modules importing dataclasses: {hits}"


_RESIDUE_TESTS = {
    "same_class", "same_field", "same_kummer_extension", "is_pth_power",
    "is_pth_power_finite",
}


def test_distinguish_tests_no_residue_itself():
    tree = ast.parse((PACKAGE / "distinguish.py").read_text(encoding="utf-8"))
    (func,) = [n for n in tree.body if getattr(n, "name", None) == "distinguish"]
    named = sorted(set(_referenced_names(func)) & _RESIDUE_TESTS)
    assert not named, f"distinguish.distinguish tests residues itself: {named}"


def _modules_naming(names):
    """The library modules but fields and residues that name one of names."""
    return sorted({
        module for module, node in _nodes()
        if module not in ("fields.py", "residues.py") and (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.alias) and node.name in names)
    })


def test_only_fields_and_residues_take_pth_powers_in_finite_fields():
    hits = _modules_naming({"is_pth_power_finite", "pth_power_exponent"})
    assert not hits, f"modules taking p-th powers past the norm: {hits}"


def test_only_fields_and_residues_name_the_generator():
    hits = _modules_naming({"multiplicative_generator"})
    assert not hits, f"modules naming multiplicative_generator: {hits}"


def test_points_are_built_only_by_point():
    hits, shared = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # breadth first: an inner function overwrites its outer one's name
        owners = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        in_class = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "ClosedPoint"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            named = getattr(node.func, "id", None) or node.func.attr
            builds = named == "ClosedPoint" or (named == "cls" and id(node) in in_class)
            if builds and (path.name, owners.get(id(node))) == ("points.py", "_point"):
                shared += 1
            elif builds:
                hits.append(f"{path.name}:{node.lineno} in {owners.get(id(node))}")
    assert not hits, f"ClosedPoint built outside points._point: {hits}"
    assert shared == 1, "points._point builds no ClosedPoint"


# The functions that may nest one for loop inside another: the kernel of
# coefficient-list products and divisions, and the residue field product.
_NESTED_LOOPS = {
    "poly": {"_zmul", "_zdivmod", "_int_list_pseudo_divmod", "lagrange_interpolate"},
    "fields.QuotientField": {"_mul"},
}


def _nests_for_loops(func):
    return any(
        isinstance(inner, ast.For) and inner is not loop
        for loop in ast.walk(func) if isinstance(loop, ast.For)
        for inner in ast.walk(loop)
    )


def test_coefficient_loops_are_written_once():
    poly = ast.parse((PACKAGE / "poly.py").read_text(encoding="utf-8"))
    fields = ast.parse((PACKAGE / "fields.py").read_text(encoding="utf-8"))
    (quotient,) = [n for n in fields.body if getattr(n, "name", None) == "QuotientField"]
    found = {
        owner: {
            func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and _nests_for_loops(func)
        }
        for owner, tree in (("poly", poly), ("fields.QuotientField", quotient))
    }
    assert found == _NESTED_LOOPS, f"nested coefficient loops outside the kernel: {found}"


_MODULAR_STAGE = {"_prime_search", "_zassenhaus", "_hensel_lift"}


def _list_ring_choices(sources):
    """Where sources (module name to text) choose a field's list ring
    themselves: an isinstance test against PrimeField outside fields, and
    outside poly and fields any _ListRing built with a field, or built
    anywhere but factoring's modular stage."""
    hits = []
    for module, text in sources.items():
        tree = ast.parse(text)
        # breadth first: an inner function overwrites its outer one's name
        owners = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            named = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            where = f"{module}:{node.lineno} in {owners.get(id(node))}"
            if named == "isinstance" and module != "fields" and "PrimeField" in set(
                _referenced_names(node.args[-1])
            ):
                hits.append(f"{where} tests for PrimeField")
            elif named == "_ListRing" and module not in ("poly", "fields"):
                if len(node.args) != 1 or node.keywords:
                    hits.append(f"{where} builds a field's list ring")
                elif (module, owners.get(id(node)) in _MODULAR_STAGE) != ("factoring", True):
                    hits.append(f"{where} builds _ListRing(p) outside the modular stage")
    return hits


def test_each_field_chooses_its_list_ring():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    hits = _list_ring_choices(sources)
    assert not hits, f"list rings chosen outside fields: {hits}"
    # the prime-field fork as factor_over_Fq had it, and a modular ring elsewhere
    plant = (
        "\ndef _planted(field, p):\n"
        "    if isinstance(field, PrimeField):\n"
        "        return _ListRing(p)\n"
        "    return _ListRing(field=field)\n"
    )
    planted = dict(sources, factoring=sources["factoring"] + plant)
    assert sorted(hit.split(" in ", 1)[1] for hit in _list_ring_choices(planted)) == [
        "_planted builds _ListRing(p) outside the modular stage",
        "_planted builds a field's list ring",
        "_planted tests for PrimeField",
    ]


def _unicode_classes(tree):
    """Lines of the strings, docstrings aside, that hold \\d or \\w in
    either case."""
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docs and re.search(r"\\[dDwW]", node.value)
    ]


def test_patterns_read_ascii_digits_only():
    hits = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _unicode_classes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not hits, f"patterns with Unicode-wide classes: {hits}"
    planted = 'import re\n_NUM = re.compile(r"-?\\d+")\n'
    assert _unicode_classes(ast.parse(planted)) == [2]


# CPython's private Fraction internals: the slots behind numerator and
# denominator, and the constructor keyword that skips the gcd.
_FRACTION_INTERNALS = {"_numerator", "_denominator"}


def _fraction_internals(tree):
    """Lines of tree that name a private Fraction slot, as an attribute or a
    string (getattr), or pass _normalize= to a call."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _FRACTION_INTERNALS
        or isinstance(node, ast.Constant) and node.value in _FRACTION_INTERNALS
        or isinstance(node, ast.keyword) and node.arg == "_normalize"
    )


def test_no_fraction_internals():
    hits = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in _fraction_internals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not hits, f"private Fraction internals read or passed: {hits}"
    planted = (
        "from fractions import Fraction\n"
        "def _content(c, d):\n"
        "    n = getattr(c, '_denominator')\n"
        "    return Fraction(c._numerator * n, d, _normalize=False)\n"
    )
    assert _fraction_internals(ast.parse(planted)) == [3, 4, 4]


# Definitions no root reaches that stay in the library: ROADMAP item 13
# gives them a caller, distinguish over F_q attaching the cover to its
# verdict (acceptance workload 7 runs them meanwhile).
_KEPT_UNREACHED = {
    "covers.make_unramified_cover",
    "covers._finite_pole_function",
    "covers._auxiliary_value",
}


def _reads(node):
    """The names node reads: loaded names and attributes, imported names,
    and string constants that are identifiers (getattr)."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
            yield sub.id if isinstance(sub, ast.Name) else sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            yield sub.value


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _unreached(sources, roots):
    """The definitions of sources (module name to text) that no name read
    from roots reaches, as module.name or module.Class.method.  Each
    top-level def or class and each method but a dunder is a node, matched
    by name; a class reads what its bases, decorators, dunder methods and
    other class-body statements read, and every module body is a root."""
    defs, reached = defaultdict(list), set(roots)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if _is_def(node):
                defs[node.name].append((f"{module}.{node.name}", set(_reads(node))))
            elif isinstance(node, ast.ClassDef):
                own = {n for part in node.bases + node.keywords + node.decorator_list
                       for n in _reads(part)}
                for item in node.body:
                    dunder = getattr(item, "name", "").startswith("__") and item.name.endswith("__")
                    if _is_def(item) and not dunder:
                        label = f"{module}.{node.name}.{item.name}"
                        defs[item.name].append((label, set(_reads(item))))
                    else:
                        own.update(_reads(item))
                defs[node.name].append((f"{module}.{node.name}", own))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached.update(_reads(node))
    todo = list(reached)
    while todo:
        for _, names in defs.get(todo.pop(), ()):
            todo.extend(names - reached)
            reached |= names
    return {label for name, found in defs.items() if name not in reached for label, _ in found}


def _reachability_roots():
    """The names callers read: the [project.scripts] entry points, what
    README's Library use blocks import and read, and what bench/*.py reads
    (bench/gaugelib, a frozen copy of an old library, aside)."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(^\[|\Z)", pyproject, re.M | re.S).group(1)
    roots = set(re.findall(r'^\S+ = "[\w.]+:(\w+)"$', scripts, re.M))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("## Library use\n")
    section = readme[start:readme.index("\n## ", start + 1)]
    for block in re.findall(r"```python\n(.*?)```", section, re.S):
        roots.update(_reads(ast.parse(block)))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots.update(_reads(ast.parse(path.read_text(encoding="utf-8"))))
    return roots


def _reachability_hits(sources, roots, kept):
    """(definitions unreached and not kept, kept names that are reached)."""
    unreached = _unreached(sources, roots)
    return sorted(unreached - kept), sorted(kept - unreached)


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    roots = _reachability_roots()
    assert {"main", "reciprocity_check", "parse_class", "discrete_log", "specialize"} <= roots
    unreached, stale = _reachability_hits(sources, roots, _KEPT_UNREACHED)
    assert not unreached, f"definitions no caller reaches (move them to tests/_oracles.py): {unreached}"
    assert not stale, f"kept as unreached, yet reached: {stale}"
    # a planted function and a planted method of a reached class are
    # caught, and so is a kept name that a root reaches
    plant = (
        "\n\ndef planted_function():\n    return 1\n"
        "\n\nclass Planted:\n    def planted_method(self):\n        return 2\n"
        "\n\n_PLANTED = Planted()\n"
    )
    planted = dict(sources, points=sources["points"] + plant)
    assert _reachability_hits(planted, roots, _KEPT_UNREACHED | {"brauer.residue_at"}) == (
        ["points.Planted.planted_method", "points.planted_function"], ["brauer.residue_at"])
