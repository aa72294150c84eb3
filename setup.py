"""Build script: compiles the optional Cython kernel when possible.

The compiled extension is an accelerator only.  It is built from
``_fast.pyx`` when Cython is installed and otherwise from the committed
``_fast.c`` that Cython generated from it.  If no C compiler is available
the build proceeds without it and the package falls back to the
pure-Python kernel at import time.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that downgrades compilation failures to a warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain dependent
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain dependent
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            "WARNING: building the compiled kernel failed (%s); "
            "the pure-Python kernel will be used instead." % (exc,),
            file=sys.stderr,
        )


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:  # pragma: no cover - build environment dependent
        return [Extension("gpvis._kernel._fast", ["src/gpvis/_kernel/_fast.c"])]
    return cythonize(
        ["src/gpvis/_kernel/_fast.pyx"],
        compiler_directives={
            "language_level": 3,
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
        },
    )


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": OptionalBuildExt},
)
