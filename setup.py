import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("TANGLEKIT_NO_EXT") != "1":
    # _enumcore.c is written by hand against the CPython API, so the
    # build needs only a C compiler.  optional=True: if it does not
    # compile, install with the pure-Python kernel only.
    ext_modules = [
        Extension(
            "tanglekit._enumcore",
            ["src/tanglekit/_enumcore.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
