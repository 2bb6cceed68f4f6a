"""Package metadata.

NumPy is deliberately an *extra* (``pip install repro[fast]``) rather than a
hard dependency: it backs only the ``numpy.random`` sampler streams of
:mod:`repro.rng`, which falls back to pure-Python generators when it is
absent.  CI runs the full tier-1 suite in both configurations.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.6.0",
    description=(
        "Generative Datalog with stable negation: chase-based exact and "
        "Monte-Carlo inference for probabilistic logic programs"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "networkx",
    ],
    extras_require={
        # numpy.random sampler streams (repro.rng).
        "fast": ["numpy"],
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
)
