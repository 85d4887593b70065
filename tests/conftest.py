"""Test-session set-up shared by every test module.

On a failing ``@given`` test the hypothesis pytest plugin imports
``hypothesis.extra._patching``, which loads ``libcst``, which uses the
deprecated ``mypy_extensions.TypedDict``. Under ``-W error`` (or the ini's
``filterwarnings = ["error"]``) that ``DeprecationWarning`` is raised inside
the plugin's report hook, and the run ends in ``INTERNALERROR`` without the
falsifying example. Importing the module here, with that warning ignored,
lets the plugin find it already loaded; warnings stay errors everywhere else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
