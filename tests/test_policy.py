import ast
from pathlib import Path

import trishare

#: What only policy.py may name: the policy file, its sidecar and the
#: seams of its byte layout.
FORMAT_NAMES = {"POLICY_FILENAME", "POLICY_DIGEST_FILENAME", "Blocks",
                "_USERS_KEY", "_GRANTS_KEY", "_ARRAY_END"}


def test_only_policy_knows_the_policy_file_and_its_layout():
    """policy.py owns policy.json, its sidecar and their byte layout, so
    a change to the format lands there alone: no other module names them,
    but for the package's re-export from policy, and the protocol in
    authz.py, which reads records, never JSON, does not name json."""
    sites = []
    for path in sorted(Path(trishare.__file__).parent.glob("*.py")):
        if path.stem == "policy":
            continue
        forbidden = FORMAT_NAMES | ({"json"} if path.stem == "authz" else set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if path.stem == "__init__" and node.module == "policy":
                    continue  # the re-export
                names = [node.module] + [alias.name for alias in node.names]
            else:
                continue
            sites += [f"{path.stem}.py:{node.lineno} {name}" for name in names
                      if name in forbidden]
    assert sites == []
