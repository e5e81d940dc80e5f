"""The names ``wnfa`` exports, read in fresh interpreters.

The package imports ``automaton`` and ``minimize`` eagerly and the other
modules when one of their names is first read, so each test starts a new
interpreter: what this process has already imported would hide a lazy load.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# each exported name and the module that defines it
HOMES = {
    "automaton": (
        "OrderedAlphabet ParseError ValidationReport Violation ViolationKind WheelerNfa "
        "accepts is_deterministic parse_wnfa serialize_wnfa to_dot validate"
    ),
    "minimize": (
        "BoundaryBits IncidenceExtrema QuotientResult boundary_bits compute_extrema "
        "format_trace minimize quotient"
    ),
    "relations": (
        "CheckFailure Relation compose inverse is_bisimulation is_wheeler_bisimulation "
        "parse_relation serialize_relation"
    ),
    "equivalence": "EquivalenceVerdict order_respecting_iso wheeler_bisimilar",
    "generators": "gen_chain gen_distinctness gen_random_wheeler",
}
LAZY = ("relations", "equivalence", "generators")


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports the package from source."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("home", list(HOMES))
def test_each_name_is_the_object_its_module_defines(home):
    names = HOMES[home].split()
    code = (
        "import importlib, sys, wnfa\n"
        f"names, home = {names!r}, 'wnfa.{home}'\n"
        "values = [getattr(wnfa, name) for name in names]\n"
        # reading a lazy name loads its module and no other
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('wnfa.'))))\n"
        "module = importlib.import_module(home)\n"
        "for name, value in zip(names, values):\n"
        "    assert value is getattr(module, name), name\n"
        "    assert value.__module__ == home, (name, value.__module__)\n"
        "    assert getattr(wnfa, name) is value, name\n"
    )
    loaded = set(fresh(code).split())
    expected = {"wnfa.automaton", "wnfa.minimize"} | ({f"wnfa.{home}"} if home in LAZY else set())
    assert loaded == expected


def test_the_homes_cover_all_and_compose_and_inverse():
    exported = " ".join(HOMES.values()).split()
    out = fresh("import wnfa\nprint(' '.join(wnfa.__all__))")
    assert sorted(out.split() + ["compose", "inverse"]) == sorted(exported)


def test_dir_lists_every_name_and_loads_nothing():
    code = (
        "import sys, wnfa\n"
        "print(' '.join(dir(wnfa)))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('wnfa.'))))\n"
    )
    listed, loaded = fresh(code).splitlines()
    assert set(" ".join(HOMES.values()).split()) <= set(listed.split())
    assert loaded.split() == ["wnfa.automaton", "wnfa.minimize"]


def test_star_import_binds_all():
    code = (
        "import wnfa\n"
        "from wnfa import *\n"
        "missing = [n for n in wnfa.__all__ if globals().get(n) is not getattr(wnfa, n)]\n"
        "print(' '.join(missing) or 'none')\n"
        "print('compose' in globals(), 'inverse' in globals())\n"
    )
    assert fresh(code) == "none\nFalse False\n"


def test_an_unknown_name_raises_attribute_error():
    code = (
        "import wnfa\n"
        "try:\n"
        "    wnfa.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from wnfa import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
        "print(hasattr(wnfa, 'no_such_name'))\n"
    )
    assert fresh(code) == "module 'wnfa' has no attribute 'no_such_name'\nImportError\nFalse\n"


@pytest.mark.parametrize(
    "imports",
    [
        "import wnfa\nimport wnfa.minimize",
        "import wnfa.minimize\nimport wnfa",
        "import wnfa\nfrom wnfa.minimize import TRACE_SEED",
        "from wnfa.minimize import TRACE_SEED\nimport wnfa",
        "import wnfa.equivalence\nimport wnfa",
        "import wnfa\nimport wnfa.reference",
    ],
    ids=[
        "package-first", "module-first", "from-after", "from-before", "via-equivalence",
        "via-reference",
    ],
)
def test_minimize_stays_the_function_whatever_the_import_order(imports):
    code = (
        f"{imports}\n"
        "import sys, types\n"
        "f = wnfa.minimize\n"
        "print(isinstance(f, types.FunctionType), f is sys.modules['wnfa.minimize'].minimize)\n"
    )
    assert fresh(code) == "True True\n"


def test_a_lazy_module_imported_first_serves_its_names():
    code = (
        "import wnfa.relations\n"
        "import wnfa\n"
        "print(wnfa.Relation is wnfa.relations.Relation, wnfa.relations.__name__)\n"
    )
    assert fresh(code) == "True wnfa.relations\n"
