import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_classify_and_certificate_check_do_not_load_dense():
    # Every verdict is decided, and every certificate checked, with
    # integers and fractions: an NPT, a witnessed and an LP-certified
    # mask leave the dense oracle and the Pauli matrices unloaded.
    script = (
        "import sys\n"
        "import lattice16\n"
        "from lattice16 import Justification as J\n"
        "for text, just in (('0x0003', J.PROP1A_VIOLATION),\n"
        "                   ('XX.X/X.X./.X.X/XX.X', J.PROP3_WITNESS),\n"
        "                   ('.XX./.XX./.XX./....', J.LP_CERTIFICATE)):\n"
        "    mask = lattice16.parse_subset(text)\n"
        "    cls = lattice16.classify(mask)\n"
        "    assert cls.justification is just, (text, cls)\n"
        "assert lattice16.verify_certificate(lattice16.decompose(mask))\n"
        "print('lattice16.pauli' in sys.modules, 'lattice16.dense' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


def test_cold_lp_classify_builds_no_whole_space_table():
    # The LP basis is built in closed form and decompose carries the
    # canonical certificate by group index: neither needs the 65,536-row
    # tables or the 1,152 elements of group().
    script = (
        "import lattice16\n"
        "from lattice16 import symmetry, tables\n"
        "mask = lattice16.parse_subset('.XXX/.XXX/.XXX/....')\n"
        "cls = lattice16.classify(mask)\n"
        "assert cls.justification is lattice16.Justification.LP_CERTIFICATE\n"
        "assert symmetry.canonical_form(mask).canonical != mask\n"
        "print(tables.cardinality.cache_info().currsize,"
        " tables.ppt.cache_info().currsize,"
        " symmetry.group.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0 0\n"


def test_ptspectrum_builds_no_whole_space_table():
    # The closed-form spectrum of one mask reads lattice.k_matrix, not the
    # 65,536-row tables.
    script = (
        "import contextlib, io\n"
        "from lattice16 import cli, tables\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert cli.main(['ptspectrum', '0x0EEE']) == 0\n"
        "assert '\"analytic\"' in out.getvalue()\n"
        "print(tables.ppt.cache_info().currsize,"
        " tables.cardinality.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def test_cold_verify_keeps_no_whole_space_count_table():
    # verify streams the 16 columns of |I & P+_mn| and of k, 64 KB each,
    # and keeps only running results: a (65536, 16) byte table is 1 MiB
    # alone, and the three such tables it used to build peaked at 3.4 MiB.
    # Cold, on a 2-core machine, the streamed sweep peaks at about 0.78 MiB.
    script = (
        "import contextlib, io, tracemalloc\n"
        "from lattice16 import cli, tables\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert cli.main(['verify']) == 0\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "assert out.getvalue().endswith(': OK\\n'), out.getvalue()\n"
        "print(peak < 1.0 * 2**20, hasattr(tables, 'k_table'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False\n"


def _assert_no_import(package, modules=None):
    """No module of src/lattice16 (or only the named ones) imports
    ``package`` or a submodule of it."""
    files = sorted((ROOT / "src").rglob("*.py"))
    if modules is not None:
        files = [f for f in files if f.stem in modules]
        assert len(files) == len(modules)
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == package for n in names), path


def test_src_does_not_import_scipy():
    # numpy is the only runtime dependency.
    _assert_no_import("scipy")


def test_src_imports_no_command_line_library():
    # cli.py reads the command line from its own table: importing and
    # building an argparse parser cost every command 3-7 ms.
    for package in ("argparse", "optparse", "getopt"):
        _assert_no_import(package)


def test_integer_modules_do_not_import_numpy():
    # The combinatorics, the exact LP and the k=1 witness scan work in
    # integers and fractions only.
    _assert_no_import("numpy", {"lattice", "simplex", "seplp", "witness"})


def test_only_pt_spectrum_calls_an_eigensolver():
    # verify proves every spectrum with integer counts; LAPACK serves only
    # the one-subset display of ptspectrum.  Any other reference to an
    # eigensolver in src/ would be a second spectrum route.
    eigensolvers = {"eigvalsh", "eigh", "eigvals", "eig"}
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth first, so inner functions overwrite outer ones.
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in eigensolvers:
                found.append((path.stem, owner.get(node)))
    assert found == [("dense", "pt_spectrum")]


def test_bell_basis_is_built_once_without_kron():
    # dense builds Psi from the sigma_ab stack and the projectors as one
    # outer product of its columns, and sigma_pair is one broadcast
    # product: src/ calls no np.kron.  A per-site psi_plus / psi_pair /
    # projector builder would be a second definition of the basis (the
    # tests keep the Kronecker one).
    krons, builders = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # ast.walk is breadth first, so inner functions overwrite outer ones.
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef))
                else node.value if isinstance(node, ast.Constant)
                else None
            )
            if name == "kron":
                krons.append((path.stem, owner.get(node)))
            if name in {"psi_plus", "psi_pair"} or (
                isinstance(node, ast.FunctionDef) and name == "projector"
            ):
                builders.append((path.stem, name))
    assert krons == []
    assert builders == []


def test_src_compares_against_no_tolerance():
    # Every check in src/ is an exact equality: the positivity of Phi_V
    # rests on V V^dag = I and V^T = -V, checked with np.array_equal, and
    # the dense sweep counts in integers.  A small float constant, or a
    # tolerant comparison, would be a judgement instead of a proof.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (
                node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in {"isclose", "allclose", "approx"}:
                found.append((path.stem, node.lineno, name))
            if (
                isinstance(node, ast.Constant)
                and type(node.value) in (float, complex)
                and 0 < abs(node.value) < 2**-10
            ):
                found.append((path.stem, node.lineno, node.value))
    assert found == []


def test_src_needs_no_numpy_2():
    # pyproject.toml declares numpy>=1.24; np.bitwise_count came in numpy
    # 2.0, so a set bit is found from byte tables instead.
    found = [
        path.stem
        for path in sorted((ROOT / "src").rglob("*.py"))
        if "bitwise_count" in path.read_text()
    ]
    assert found == []
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()


def test_only_tables_builds_byte_tables():
    # Every whole-space table sums a 16-row weight table over the sites of
    # each mask, from the two 256-row tables of tables.byte_sums.  The
    # integer 256 anywhere else in src/ would be a second byte-table
    # builder.  (Comments and docstrings are not integers.)
    found = {
        path.stem
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value == 256
    }
    assert found == {"tables"}


def test_dense_reads_the_whole_space_through_column_sums_only():
    # The sweep streams every whole-space count one 64 KB column at a
    # time; a byte_sums call in dense would build the 256-row tables of
    # a whole weight table at once.
    tree = ast.parse((ROOT / "src" / "lattice16" / "dense.py").read_text())
    names = {
        node.attr if isinstance(node, ast.Attribute)
        else node.id if isinstance(node, ast.Name)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
    }
    assert "byte_sums" not in names
    assert "column_sums" in names


def test_simplex_takes_integers_without_rescaling():
    # The exact LP is posed on integers (seplp solves A y = 1), so the
    # simplex keeps no lcm of denominators and reads no .denominator.
    tree = ast.parse((ROOT / "src" / "lattice16" / "simplex.py").read_text())
    names = {
        node.attr if isinstance(node, ast.Attribute)
        else node.id if isinstance(node, ast.Name)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name, ast.alias, ast.FunctionDef))
    }
    assert "feasible_nonneg_solution" in names
    assert not [n for n in names if "lcm" in n.lower() or "denominator" in n.lower()]


def test_cli_turns_usage_errors_into_exit_2_in_main_only():
    # The library raises lattice.UsageError and cli.main alone prints it
    # as "error: ..." with exit 2.  Another except handler in cli.py, or
    # a second "error:" string, would be a command restating the rule.
    tree = ast.parse((ROOT / "src" / "lattice16" / "cli.py").read_text())
    owner = {}
    # ast.walk is breadth first, so inner functions overwrite outer ones.
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, fn.name) for node in ast.walk(fn))
    handlers = {
        owner.get(node) for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
    }
    assert handlers <= {"main"}  # None: a module-level handler
    texts = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "error:" in node.value
    ]
    assert texts == ["error: "]


def test_no_memo_and_one_classification_site():
    # classify computes the cross counts once and hands them to its
    # stages, so src/ keeps no lru_cache memo; and every verdict is built
    # at the one Classification(...) call in classify, from _LABEL_OF.
    memos = [
        (path.stem, node.lineno)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias)
            else None) == "lru_cache"
    ]
    assert memos == []
    tree = ast.parse((ROOT / "src" / "lattice16" / "classifier.py").read_text())
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Classification"
    ]
    assert len(sites) == 1


def test_symmetry_keeps_the_group_as_plain_tuples():
    # A group element is the tuple (swap_axes, col_perm, row_perm) that
    # act reads.  A class of elements with its own site action, or a
    # cached_property memo of one, would be a second encoding of the
    # action beside act and the byte tables.
    tree = ast.parse((ROOT / "src" / "lattice16" / "symmetry.py").read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["OrbitRecord"]
    names = {
        node.attr if isinstance(node, ast.Attribute)
        else node.id if isinstance(node, ast.Name)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name, ast.alias))
    }
    assert "cached_property" not in names
