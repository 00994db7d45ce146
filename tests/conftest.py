"""Makes ``reference_sim`` importable from every test directory."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running end-to-end test (still collected)"
    )
