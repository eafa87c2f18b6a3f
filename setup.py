"""Package metadata for ``pip install -e .`` and ``setup.py develop``.

The project has no ``pyproject.toml``; its metadata lives here.  The
offline build environment lacks the ``wheel`` module, which
setuptools' PEP 660 editable-install hook requires, so there
``python setup.py develop`` installs the package instead.  Either way
the ``repro-experiments`` command runs :func:`repro.experiments.cli.main`.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="hashflow-repro",
    version=VERSION,
    description="A reproduction of HashFlow for Better Flow Record Collection",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The native tier compiles its C kernels from the package directory.
    package_data={"repro.native": ["csrc/kernels.c"]},
    install_requires=["numpy"],
    entry_points={
        "console_scripts": ["repro-experiments = repro.experiments.cli:main"]
    },
)
