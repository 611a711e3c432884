"""Setuptools entry point.

The build metadata lives here (rather than in a ``[project]`` table) so that
``pip install -e .`` works in fully offline environments where the ``wheel``
package is unavailable and PEP 660 editable builds cannot be prepared.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of IDEA: detection-based adaptive consistency control "
        "for replicated services (Lu, Lu & Jiang, 2007)"
    ),
    long_description=open("README.md", encoding="utf-8").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.worlds": ["catalog/*.json"]},
    install_requires=["numpy>=1.24"],
    extras_require={
        "dev": ["pytest>=7.0", "hypothesis>=6.0"],
    },
)
