"""Package metadata for the repro QKD simulation library.

Metadata lives here; pyproject.toml carries only the build-system
declaration and shared tool configuration (ruff), so `pip install -e .`
keeps working in minimal environments.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_root = Path(__file__).parent
_paper = _root / "PAPER.md"
_long_description = _paper.read_text(encoding="utf-8") if _paper.exists() else ""
# Single source of truth for the version: the package itself.
_version = re.search(
    r'__version__ = "([^"]+)"', (_root / "src" / "repro" / "__init__.py").read_text()
).group(1)

setup(
    name="repro-qkd",
    version=_version,
    description=(
        "Simulation and protocol library reproducing 'Quantum Cryptography "
        "in Practice' (SIGCOMM 2003): BB84 optics, the Cascade distillation "
        "pipeline, QKD-keyed IPsec, and trusted-relay networks"
    ),
    long_description=_long_description,
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        # networkx is the reference the graph searches are tested against.
        "test": ["pytest>=7.0", "hypothesis>=6.0", "networkx>=2.8"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Security :: Cryptography",
        "Topic :: System :: Networking",
    ],
    keywords="qkd quantum-cryptography bb84 cascade ipsec simulation",
)
