"""The mutation probe's map from modules to test files stays whole."""

from pathlib import Path

import mutation

import trishare


def test_every_module_maps_to_test_files_that_exist():
    """Each module of the package but __init__, __main__ and errors has
    an entry in mutation.TESTS, and each file it maps to exists, so a
    renamed test file fails the suite instead of the probe.  The protocol
    and the policy store map to their own tests only."""
    modules = {path.stem for path in Path(trishare.__file__).parent.glob("*.py")}
    assert set(mutation.TESTS) == modules - {"__init__", "__main__", "errors"}
    mapped = sorted({path for paths in mutation.TESTS.values() for path in paths})
    assert [path for path in mapped if not (mutation.REPO / path).is_file()] == []
    assert mutation.TESTS["authz"] == ["tests/test_authz.py"]
    assert mutation.TESTS["policy"] == ["tests/test_policy.py",
                                        "tests/test_store_fuzz.py"]
