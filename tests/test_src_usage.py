"""src/ keeps only what src/ uses: every top-level function and class, and
every non-dunder method, is named somewhere in src/fusiondepth (as an
attribute of anything but an absolutely imported module such as np, or as a
bare name where that name can reach it: in its own module, or in one that
imports it with `from .module import name`), every parameter with a default
is passed by some call in src/fusiondepth, no parameter is passed the same
literal by every call in src/fusiondepth, and every dataclass field default
is left to some construction in src/fusiondepth. Code that only tests reach,
and a parameter or a default that is in effect a constant or dead, fail here
unless they are allowlisted with a reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusiondepth"

ALLOWED = {
    "nonoccluded_mask": "test oracle for the renderer, the gt warp (criterion 7) and recovery MAE (criterion 3)",
}

# "callable(parameter)": a class's __init__ is called by the class name
ALLOWED_UNPASSED = {
    "main(argv)": "the console-script entry point reads sys.argv; perfbench and the tests pass argv",
}

ALLOWED_CONSTANT = {}


def definitions(tree):
    """(qualified name, bare name) of each top-level def and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def parameters(tree):
    """(callable name, parameter, index among a caller's positional arguments
    or None if keyword-only, whether it has a default) for each parameter but
    `self` of each top-level def and each method."""
    functions = [(node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(node.name if item.name == "__init__" else item.name, item, 1)
                          for item in node.body if isinstance(item, ast.FunctionDef)]
    for name, fn, bound in functions:
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for index in range(bound, len(positional)):
            yield name, positional[index].arg, index - bound, index >= first_default
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            yield name, arg.arg, None, default is not None


def dataclass_fields(tree):
    """(class name, field, index among a constructor's positional arguments,
    whether it has a default) for each field of each top-level @dataclass; a
    ClassVar is no field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(ast.unparse(d).startswith("dataclass")
                                                  for d in node.decorator_list):
            annotated = [item for item in node.body if isinstance(item, ast.AnnAssign)
                         and not ast.unparse(item.annotation).startswith("ClassVar")]
            for index, item in enumerate(annotated):
                yield node.name, item.target.id, index, item.value is not None


def expands(call):
    """Whether a call passes *args or **kwargs."""
    return any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords)


def passes(call, parameter, index):
    """Whether a call sets the parameter, counting *args and **kwargs as setting everything."""
    if expands(call):
        return True
    return any(k.arg == parameter for k in call.keywords) or (index is not None and len(call.args) > index)


def passed_literal(call, parameter, index):
    """The source text of the literal a call passes for the parameter, or
    None if it passes none, passes an expression, or uses *args/**kwargs."""
    if expands(call):
        return None
    given = [k.value for k in call.keywords if k.arg == parameter]
    if index is not None and len(call.args) > index:
        given.append(call.args[index])
    if not given:
        return None
    try:
        ast.literal_eval(given[0])
    except ValueError:
        return None
    return ast.unparse(given[0])


def trees_and_calls():
    """The parsed modules of src/ and their calls, keyed by the called name."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    calls = {}
    for node in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        calls.setdefault(callee, []).append(node)
    return trees, calls


def parameters_and_calls():
    """Each parameter of src/ (see `parameters`) with the calls in src/ made
    by its callable's name."""
    trees, calls = trees_and_calls()
    return [(f"{name}({parameter})", parameter, index, defaulted, calls.get(name, []))
            for tree in trees for name, parameter, index, defaulted in parameters(tree)]


def unrelied_field_defaults():
    """Dataclass field defaults that no construction in src/ relies on. A call
    by the class name that leaves the field out relies on it, as does a call
    that expands *args or **kwargs, and `field(default_factory=Cls)` relies on
    every default of Cls."""
    trees, calls = trees_and_calls()
    factories = {ast.unparse(k.value) for call in calls.get("field", []) for k in call.keywords
                 if k.arg == "default_factory"}
    return {f"{cls}.{name}" for tree in trees for cls, name, index, defaulted in dataclass_fields(tree)
            if defaulted and cls not in factories
            and not any(expands(call) or not passes(call, name, index) for call in calls.get(cls, []))}


def unpassed_parameters():
    return {entry for entry, parameter, index, defaulted, calls in parameters_and_calls()
            if defaulted and not any(passes(call, parameter, index) for call in calls)}


def constant_parameters():
    """Parameters that every call in src/ passes as the same literal."""
    found = set()
    for entry, parameter, index, _, calls in parameters_and_calls():
        literals = {passed_literal(call, parameter, index) for call in calls}
        if len(literals) == 1 and None not in literals:
            found.add(entry)
    return found


def absolute_imports(tree):
    """Names bound by `import x` or `from x import y`: attributes read off them
    (np.sqrt, os.path) name something outside src/, not a definition in it."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return bound


def names_in(file, tree):
    """(module, name) pairs a module names. An attribute read may be any
    module's, so its module is "*"; a bare name is the module's own unless
    it was bound by `from .module import name`. So a local or a parameter
    that shares a name with another module's definition (`run_schedule`'s
    `log` callback and a function `log` in autodiff) is not a use of it."""
    external = absolute_imports(tree)
    imported = {alias.asname or alias.name: (f"{node.module}.py", alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield imported.get(node.id, (file, node.id))
        elif isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in external):
            yield "*", node.attr


def scan():
    """(file, qualified name, bare name, whether src/ names it) for each definition."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    named = {pair for file, tree in trees.items() for pair in names_in(file, tree)}
    return [(file, qual, name, ("*", name) in named or (file, name) in named)
            for file, tree in trees.items() for qual, name in definitions(tree)]


def test_every_definition_is_named_in_src():
    unused = sorted(f"{file}: {qual}" for file, qual, name, used in scan() if not used and name not in ALLOWED)
    assert not unused, "defined in src/ but never named there: " + ", ".join(unused)


def test_allowlist_entries_are_still_unused_definitions():
    found = scan()
    for name in ALLOWED:
        uses = [used for _, _, bare, used in found if bare == name]
        assert uses, f"{name} is no longer defined; drop it from ALLOWED"
        assert not any(uses), f"{name} is now named in src/; drop it from ALLOWED"


def test_every_defaulted_parameter_is_passed_in_src():
    unpassed = sorted(unpassed_parameters() - set(ALLOWED_UNPASSED))
    assert not unpassed, "parameters with a default that no call in src/ passes: " + ", ".join(unpassed)


def test_every_field_default_is_relied_on_in_src():
    unrelied = sorted(unrelied_field_defaults())
    assert not unrelied, "dataclass field defaults that every construction in src/ overrides: " + ", ".join(unrelied)


def test_unpassed_allowlist_entries_are_still_unpassed():
    unpassed = unpassed_parameters()
    for entry in ALLOWED_UNPASSED:
        assert entry in unpassed, f"{entry} is now passed in src/ or gone; drop it from ALLOWED_UNPASSED"


def test_no_parameter_is_always_passed_the_same_literal():
    constant = sorted(constant_parameters() - set(ALLOWED_CONSTANT))
    assert not constant, "parameters that every call in src/ passes as the same literal: " + ", ".join(constant)


def test_constant_allowlist_entries_are_still_constant():
    constant = constant_parameters()
    for entry in ALLOWED_CONSTANT:
        assert entry in constant, f"{entry} is now passed other values in src/ or gone; drop it from ALLOWED_CONSTANT"
