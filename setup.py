"""Setuptools metadata for the reproduction package.

Kept as a plain ``setup.py`` (no pyproject.toml) because the build
environment has no ``wheel`` package, so PEP 660 editable installs are
unavailable; ``pip install -e . --no-build-isolation --no-use-pep517``
falls back to ``setup.py develop`` via this file.  The library has
zero runtime dependencies beyond the standard library, and everything
also works uninstalled with ``PYTHONPATH=src`` (``repro-roa`` ≡
``python -m repro.cli``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# The one version literal lives in the package; read it without
# importing (setup must not depend on the package being importable).
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(
        encoding="utf-8"
    ),
    re.MULTILINE,
).group(1)

setup(
    name="repro-roa",
    version=VERSION,
    description=(
        "Reproduction of 'MaxLength Considered Harmful to the RPKI' "
        "(CoNEXT'17): RPKI object model, compress_roas, hijack "
        "simulations, RTR serving tier"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={"console_scripts": ["repro-roa = repro.cli:main"]},
)
