"""Package metadata for the ``repro`` distribution (sources under ``src/``).

``pip install -e .`` builds a PEP 660 wheel, which needs the ``wheel``
distribution; on an offline box without it, ``python setup.py develop``
gives the same editable install.
"""

from pathlib import Path

from setuptools import find_packages, setup

# ``__version__`` from src/repro/version.py, read without importing the
# package (its imports need numpy).
about: dict = {}
exec((Path(__file__).resolve().parent / "src/repro/version.py").read_text(), about)

setup(
    name="repro",
    version=about["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
