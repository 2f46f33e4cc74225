"""Checks on the source text of `geg` itself."""

import ast
from pathlib import Path

import geg

SRC = Path(geg.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_no_assert_statements():
    # `python -O` strips assert, so an invariant it checks would go unchecked
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_wire_imports_no_protocol():
    # the frame codec sits below the protocol: it knows matrices, not entities
    tree = ast.parse((SRC / "wire.py").read_text())
    imported = {node.module or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert imported <= {"errors", "field", "linalg"}


def test_no_single_block_cipher_calls():
    # a geg process runs the batch cipher only; the N=1 names stay defined
    # because the benchmark (perfbench/) still calls and traces them
    single = {"encrypt_block", "decrypt_block", "cipher_block_message", "cipher_block_from_message"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in single
    ]
    assert found == []


def test_exponent_pair_never_stored():
    # the pair is read off the session key; a stored copy can fall out of step
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "exponents"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert found == []


def test_generator_stored_only_by_its_context():
    # the generator is half of a session's public pair (P, G); a copy kept
    # beside the context can fall out of step with the basis
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "commuting.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "generator"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert found == []


def test_eigenbasis_stays_in_commuting():
    # the subgroup's representation P diag(λ) P^-1 has one owner: the protocol
    # reaches it through CommutingContext.compose, weights and read_weights
    change = {"to_eigenbasis", "from_eigenbasis", "_from_eigenbasis"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "commuting.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in change
    ]
    tree = ast.parse((SRC / "protocol.py").read_text())
    found += [
        f"protocol.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "power_table" for alias in node.names)
    ]
    assert found == []


def test_peer_token_never_stored():
    # the peer token is kept as the weight pair its check read, and rebuilt
    # from it; a stored matrix beside the pair can fall out of step with it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "peer_token"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    assert found == []


def _calls_by_scope(path):
    """(enclosing class and function names, called name) for each call in `path`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((scope, getattr(child.func, "attr", getattr(child.func, "id", None))))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_session_update_rule_has_one_home():
    # K -> K**(m*n), with the basis and generator re-derived from the new
    # key, is public and lives in next_key and session_step; Entity calls
    # those rather than rebuild the rule
    homes = {"extract_exponents": {"Entity.exponents", "next_key", "session_step"},
             "pow": {"next_key", "session_step"}}
    found = [f"protocol.py {scope}: {name}"
             for scope, name in _calls_by_scope(SRC / "protocol.py")
             if name in homes and scope not in homes[name]]
    found += [f"{path.name} {scope}: {name}"
              for path in sorted(SRC.glob("*.py")) if path.name != "protocol.py"
              for scope, name in _calls_by_scope(path) if name == "extract_exponents"]
    assert found == []


def test_contexts_built_only_at_set_up_and_session_step():
    # a session's public pair becomes a context in Entity.__init__ (set-up
    # and restore) or in session_step (each update); a caller that builds
    # one from loose matrices repeats the update rule's public half
    scopes = {scope for scope, name in _calls_by_scope(SRC / "protocol.py")
              if name == "CommutingContext"}
    assert scopes == {"Entity.__init__", "session_step"}


def test_cipher_owns_its_slice_rule():
    # the cipher's stacks are cut in protocol, where the temporaries that the
    # rule bounds are made; the CLI streams a file in chunks of whole slices,
    # whose length it takes from protocol, and never reads an input whole
    named = {path.name
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if getattr(node, "id", getattr(node, "attr", None)) == "BATCH_ENTRIES"}
    assert named == {"protocol.py"}
    commands = ("run_encrypt", "run_decrypt")
    calls = [(scope.split(".")[0], name) for scope, name in _calls_by_scope(SRC / "cli.py")
             if scope.split(".")[0] in commands]
    assert {scope for scope, name in calls if name == "slice_blocks"} == set(commands)
    whole = {"read_bytes", "read_text", "readall", "readlines"}
    assert [call for call in calls if call[1] in whole] == []
    # a stream's read() with no size reads to its end
    unbounded = [f"{path.name}:{node.lineno}"
                 for path in (SRC / "cli.py", SRC / "wire.py")
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "read"
                 and not node.args]
    assert unbounded == []


def test_frames_are_read_without_seeking():
    # decrypt reads a pipe as it reads a file: a frame is bounded by its
    # declared end and the stream's, found by reading on, not by a seek
    seeks = [f"{path.name}:{node.lineno}"
             for path in (SRC / "cli.py", SRC / "wire.py")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in {"seek", "tell"}]
    assert seeks == []
    tree = ast.parse((SRC / "wire.py").read_text())
    imported = {alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert "os" not in imported


def test_one_basis_change_per_public_matrix():
    # a public matrix enters the eigenbasis when a context is built (G and
    # G^-1) or when a received matrix is read; compose builds from the
    # cached G~, so nothing else moves a matrix in
    scopes = {f"{path.name} {scope}"
              for path in sorted(SRC.glob("*.py"))
              for scope, name in _calls_by_scope(path) if name == "to_eigenbasis"}
    assert scopes == {"commuting.py CommutingContext.__init__", "commuting.py CommutingContext.read_weights"}


def _definitions(tree):
    """(line, name) of each top-level function and class in `tree`, and of
    each method that is not a dunder."""
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defined):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, item.name) for item in node.body
                        if isinstance(item, defined)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_every_definition_has_a_caller():
    # src/geg holds what a geg process runs: a definition that nothing in the
    # package names is exported API, the console entry point, or a name the
    # benchmark's code references or traces (tracer.TARGETS names its
    # targets by string); a word in a comment or docstring pins nothing
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    benchmark = [ast.parse(path.read_text(), str(path)) for path in sorted(PERFBENCH.glob("*.py"))]
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    referenced, pinned = ({getattr(node, field[type(node)]) for tree in forest
                           for node in ast.walk(tree) if type(node) in field}
                          for forest in (trees.values(), benchmark))
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tracer.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    traced = {attr for _, _, _, attr in targets}
    allowed = referenced | set(geg.__all__) | pinned | traced | {"main"}
    found = [f"{name}:{line} {defined}" for name, tree in trees.items()
             for line, defined in _definitions(tree) if defined not in allowed]
    assert found == []


def test_package_exports():
    # the protocol names only: the analyze report is imported by module name
    assert all(hasattr(geg, name) for name in geg.__all__)
    assert sorted(geg.__all__) == [
        "CodecError", "CommutingContext", "CorruptBlockError", "DEFAULT_PRIME", "DiagonalSpec",
        "Entity", "FrameLengthError", "FrameMagicError", "FrameTypeError", "FrameValueError",
        "GegError", "MatrixFp", "PaddingError", "Phase", "ProtocolError", "RandomSource",
        "SingularMatrixError", "extract_exponents", "handshake", "setup_shared", "start_session",
    ]
