"""Build config: compiles the shipped C of the optional speedup extension;
without a C compiler the install falls back to the pure-Python kernels."""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "doubledist._kernels._speedups",
            ["src/doubledist/_kernels/_speedups.c"],
            optional=True,
        )
    ]
)
