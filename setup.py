"""Setup shim for legacy editable installs (offline environments).

The offline environment lacks the ``wheel`` package that PEP 660
editable installs require; ``pip install -e . --no-use-pep517
--no-build-isolation`` uses this file instead.  It holds all of the
package metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
)
