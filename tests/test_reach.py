"""The reach tool's collector (``benchmarks/reach.py``) on a throwaway
package: a function nothing calls reads as unreached; one called only in a
forked process-pool worker, or only inside ``benchmark.pedantic`` under
``--benchmark-disable``, reads as reached; a decorated function is keyed
by its decorator's line."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REACH = Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"
HAVE_BENCHMARK = importlib.util.find_spec("pytest_benchmark") is not None

PACKAGE = '''
import functools


def traced(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)

    return wrapper


def never_called():
    return 0


def in_worker(x):
    return x + 1


def in_pedantic():
    return 2


@traced
def decorated():
    return 3
'''

ENTRY = '''
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import tinypkg

with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
    assert pool.submit(tinypkg.in_worker, 1).result() == 2
assert tinypkg.decorated() == 3
'''

BENCH = '''
import tinypkg


def test_pedantic(benchmark):
    assert benchmark.pedantic(tinypkg.in_pedantic, rounds=3) == 2
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def swept(reach, tmp_path_factory):
    """Run the entry script (and the bench file, when pytest-benchmark is
    installed) through the collector's child entry point; returns the
    package's functions and the reached set."""
    root = tmp_path_factory.mktemp("reach")
    package, dumps = root / "tinypkg", root / "dumps"
    package.mkdir()
    dumps.mkdir()
    (package / "__init__.py").write_text(textwrap.dedent(PACKAGE))
    (root / "entry.py").write_text(textwrap.dedent(ENTRY))
    (root / "test_bench.py").write_text(textwrap.dedent(BENCH))
    runs = [("script", "entry.py")]
    if HAVE_BENCHMARK:
        runs.append(
            ("pytest", "test_bench.py", "-q", "-p", "no:cacheprovider", "--benchmark-disable")
        )
    for kind, target, *args in runs:
        done = subprocess.run(
            [sys.executable, str(REACH), "--collect", str(dumps), str(package),
             kind, str(root / target), *args],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
    return reach.all_functions(package), reach.reached_keys(dumps, root)


def _by_name(functions):
    return {fn.qualname: fn for fn in functions}


def test_uncalled_function_is_unreached(reach, swept):
    functions, reached = swept
    dead = {fn.qualname for fn in reach.unreached(functions, reached)}
    assert dead == ({"never_called"} if HAVE_BENCHMARK else {"never_called", "in_pedantic"})


def test_forked_worker_call_is_reached(swept):
    functions, reached = swept
    assert _by_name(functions)["in_worker"].key in reached


@pytest.mark.skipif(not HAVE_BENCHMARK, reason="needs pytest-benchmark")
def test_pedantic_call_is_reached_under_benchmark_disable(swept):
    functions, reached = swept
    assert _by_name(functions)["in_pedantic"].key in reached


def test_decorated_function_keyed_by_decorator_line(swept):
    functions, reached = swept
    fn = _by_name(functions)["decorated"]
    lines = textwrap.dedent(PACKAGE).splitlines()
    assert lines[fn.first - 1] == "@traced"
    assert fn.key == ("tinypkg/__init__.py", fn.first)
    assert fn.key in reached
