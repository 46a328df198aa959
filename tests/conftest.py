"""Session setup shared by every test module."""

import warnings

# hypothesis imports libcst to explain a failing example; under the
# warnings-as-errors filter that import's DeprecationWarning (from
# mypy_extensions) would turn the failure report into an internal error
# that ends the session, so import it once here with the warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass
