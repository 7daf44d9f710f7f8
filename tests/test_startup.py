"""Start-up imports and ownership: the CLI loads only the standard library
it runs, each library module only the pqcalc modules it builds on, each
public name is listed once, by the module that defines it, and each shared
argument rule's message is written once, in ``laurent``.

Each import test runs a fresh interpreter, without ``site`` (``-S``), so
that ``sys.modules`` shows what pqcalc itself imports; the test session has
imported everything already.  No timing is asserted.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqcalc
from pqcalc import checks, laurent, qnumbers, skein, torus

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("dataclasses", "inspect", "json", "decimal", "fractions")


def _run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_setup_command_imports_none_of_the_deferred_modules():
    out = _run_fresh(
        "import sys\n"
        "from pqcalc import cli\n"
        "rc = cli.main(['family-params', '--family', 'alexander-fermionic'])\n"
        f"print(rc, sorted(set({DEFERRED!r}) & set(sys.modules)))\n"
    )
    assert out == "P = q^(1/2)\nQ = -q^(-1/2)\n0 []\n"


# each deferred path, run in a fresh interpreter: the module is absent
# before the call and loaded by it, and the call gives the right answer
DEFERRED_PATHS = {
    "format_json": (
        "json",
        "from pqcalc.laurent import format_json, parse\n"
        "got = format_json({'P': parse('-q'), 'Q': parse('q^(-1/2)')})\n",
        "want = {'P': parse('-q').to_json_obj(), 'Q': parse('q^(-1/2)').to_json_obj()}\n"
        "assert got == json.dumps(want, indent=2), got\n",
    ),
    "verify-json": (
        "json",
        "import contextlib, io\n"
        "from pqcalc import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    rc = cli.main(['verify', '--format', 'json', '--max-n', '5'])\n",
        "payload = json.loads(buf.getvalue())\n"
        "assert rc == 0 and payload['all_passed'] and len(payload['checks']) == 19, payload\n",
    ),
    "int-to-str": (
        "decimal",
        "from pqcalc.laurent import _int_to_str\n"
        "got = _int_to_str(10**4999 + 1), _int_to_str(-(10**4999))\n",
        "assert got == ('1' + '0' * 4998 + '1', '-1' + '0' * 4999)\n",
    ),
    "eval-numeric-fraction": (
        "fractions",
        "from pqcalc.laurent import eval_numeric, parse\n"
        "got = eval_numeric(parse('q + 2 + q^(-1/2)'), 4)\n",
        "assert got == fractions.Fraction(13, 2) and type(got) is fractions.Fraction, got\n",
    ),
    "eval-numeric-decimal": (
        "decimal",
        "from pqcalc.laurent import eval_numeric, parse\n"
        "got = eval_numeric(parse('q^(1/2)'), 2, digits=20)\n",
        "assert type(got) is decimal.Decimal and str(got) == '1.4142135623730950488', got\n",
    ),
}


@pytest.mark.parametrize("module, call, check", DEFERRED_PATHS.values(), ids=DEFERRED_PATHS)
def test_deferred_paths_import_what_they_use(module, call, check):
    code = (
        f"import sys\nassert {module!r} not in sys.modules\n{call}"
        f"assert {module!r} in sys.modules\nimport {module}\n{check}print('ok')\n"
    )
    assert _run_fresh(code) == "ok\n"


# each library module and the pqcalc modules it loads, itself included
MODULE_LOADS = {
    "laurent": ("laurent",),
    "skein": ("laurent", "skein"),
    "qnumbers": ("laurent", "skein", "qnumbers"),
    "torus": ("laurent", "torus"),
    "checks": ("laurent", "skein", "qnumbers", "torus", "checks"),
}


@pytest.mark.parametrize("module", MODULE_LOADS)
def test_each_module_loads_only_the_modules_below_it(module):
    # a bare package stands in for pqcalc/__init__.py, which loads them all
    code = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('pqcalc')\n"
        f"package.__path__ = [{str(SRC / 'pqcalc')!r}]\n"
        "sys.modules['pqcalc'] = package\n"
        f"importlib.import_module('pqcalc.{module}')\n"
        "print(sorted(name for name in sys.modules if name.startswith('pqcalc.')))\n"
    )
    want = sorted(f"pqcalc.{name}" for name in MODULE_LOADS[module])
    assert _run_fresh(code) == f"{want}\n"


# the package's names, and those of them that the verify walks own
PACKAGE_NAMES = {
    "JSON_SCHEMA", "BudgetExceededError", "GridError", "LaurentError", "LaurentPoly",
    "NegativePowerOfZError", "NonExactDivisionError", "NotAPerfectSquareError", "ParseError",
    "eval_numeric", "exact_div", "format_json", "format_poly", "parse", "poly_sum",
    "sqrt_perfect_square", "substitute_z",
    "FAMILY_NAMES", "Family", "family_params", "homfly_factorization_check",
    "number_sequence", "pq_number", "pq_numbers", "recurrence_numbers",
    "DegenerateSkeinError", "KnotCoefficients", "NotSolvableOnGridError", "PQPair",
    "SkeinCoefficients", "knot_to_link_coeffs", "link_coeffs_from_pq", "pq_from_link_coeffs",
    "recurrence", "recurrence_generate",
    "NotCoprimeError", "alexander_torus", "alexander_torus2",
    "Counterexample", "first_counterexample", "homfly_factor_counterexample",
    "recurrence_counterexamples", "torus2_counterexamples",
    "__version__",
}
WALK_NAMES = ("Counterexample", "first_counterexample", "homfly_factor_counterexample",
              "recurrence_counterexamples", "torus2_counterexamples")


def test_each_public_name_is_listed_once_by_the_module_that_owns_it():
    assert set(pqcalc.__all__) == PACKAGE_NAMES
    owners = (laurent, qnumbers, skein, torus, checks)
    listed = [name for owner in owners for name in owner.__all__]
    # the package lists no name itself, and no module lists another's
    assert sorted(listed) == sorted(PACKAGE_NAMES - {"__version__"})
    for owner in owners:
        for name in owner.__all__:
            value = getattr(owner, name)
            assert getattr(pqcalc, name) is value, name
            assert getattr(value, "__module__", owner.__name__) == owner.__name__, name
    for name in WALK_NAMES:
        assert name in checks.__all__
        assert not hasattr(qnumbers, name) and not hasattr(torus, name), name


# the shared rules for an integer, for a value argument and for the work
# budget: each message is written once, by the function in laurent that
# owns the rule, and every other function calls the rule
SHARED_MESSAGES = {
    "must be an int, not": "_require_int",
    "must be at least": "_require_int",
    "must be a LaurentPoly or an int": "_require_poly",
    "over the budget of": "_require_budget",
}
# wordings those rules replaced, written nowhere
RETIRED_MESSAGES = (
    "must be int, got",
    "must be nonnegative",
    "polynomial powers take a nonnegative exponent",
)


# the scripts that import pqcalc; ab_pairs.py runs two checkouts and
# imports none
SCRIPTS = ("number_tables.py", "torus_table.py")


def _strings_by_function(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing function, string) for every string constant and
    f-string part of ``source``, docstrings skipped."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.append((function, node.value))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_each_shared_rule_message_is_written_only_in_laurent():
    paths = sorted((SRC / "pqcalc").glob("*.py"))
    paths += [SRC.parent / "scripts" / name for name in SCRIPTS]
    sources = {path.name: path.read_text() for path in paths}
    writers = {message: [name for name, text in sources.items() if message in text]
               for message in SHARED_MESSAGES}
    assert writers == {message: ["laurent.py"] for message in SHARED_MESSAGES}
    strings = _strings_by_function(sources["laurent.py"])
    functions = {message: sorted({function for function, string in strings if message in string})
                 for message in SHARED_MESSAGES}
    assert functions == {message: [owner] for message, owner in SHARED_MESSAGES.items()}
    for message in RETIRED_MESSAGES:
        assert [name for name, text in sources.items() if message in text] == [], message
    for name in SCRIPTS:
        assert "type=int" not in sources[name], name


def _module_bindings(tree: ast.Module) -> set[str]:
    """Every name a module's top level assigns or imports."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name.partition(".")[0])
    return names


def test_one_budget_constant_read_by_one_budget_rule():
    # every price is compared with laurent.MAX_WORK alone: no module binds
    # another budget constant, and _require_budget takes no limit of its own
    trees = {path.name: ast.parse(path.read_text()) for path in (SRC / "pqcalc").glob("*.py")}
    constants = {name: sorted(n for n in _module_bindings(tree) if n.startswith("MAX_"))
                 for name, tree in trees.items()}
    assert constants == {name: ["MAX_WORK"] if name == "laurent.py" else [] for name in trees}
    (rule,) = [node for node in trees["laurent.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "_require_budget"]
    assert rule.args.vararg is not None and rule.args.vararg.arg == "args"
    assert rule.args.kwonlyargs == [] and rule.args.kwarg is None
