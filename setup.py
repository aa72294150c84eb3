"""Build script: compiles the optional C kernel when possible.

The compiled extension ``gpvis._kernel._fast`` is an accelerator only,
built from the hand-written ``src/gpvis/_kernel/_fast.c``.  If no C
compiler is available the build proceeds without it and the package
falls back to the pure-Python kernel at import time.
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


setup(
    ext_modules=[Extension("gpvis._kernel._fast", ["src/gpvis/_kernel/_fast.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
