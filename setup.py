"""Packaging for the repro-dcra simulator.

Installing (``pip install -e .``) exposes the ``repro`` console script —
the same CLI as ``python -m repro`` — and makes the package importable
without PYTHONPATH tricks.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dcra",
    version="1.2.0",
    description=("Reproduction of 'Dynamically Controlled Resource "
                 "Allocation in SMT Processors' (Cazorla et al., "
                 "MICRO-37 2004)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    entry_points={
        "console_scripts": [
            "repro=repro.__main__:main",
        ],
    },
)
