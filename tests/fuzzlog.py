"""Opt-in pytest plugin: log every example and bounded outcome of the
boundary fuzz, so that two versions of src/ can be compared.

Hypothesis adds the literals it finds in the code under test to what it
draws, so a change to a literal in src/ can move the derandomized
sequences of tests/test_boundary.py.  Run the boundary tests under each
version and diff the logs:

    PYTHONPATH=src:tests python -m pytest -p fuzzlog --fuzzlog=OUT tests/test_boundary.py

Each example is one line, the test's name and its arguments, followed by one
indented line per bounded call: the function and "ok", or the exception it
raised.  A repr longer than LIMIT characters is cut and suffixed with its
length and digest.  tests/data/boundary_fuzz.log is such a log.

The module lives under tests/, where hypothesis collects no literals, and
wraps each test's hypothesis.inner_test with functools.wraps, which leaves
the source digest that derandomizes the test unchanged.
"""

from __future__ import annotations

import functools
import hashlib

LIMIT = 160


def _text(value: object) -> str:
    try:
        text = repr(value)
    except ValueError:  # an int past CPython's int-to-string limit
        text = f"<{type(value).__name__} past the str() limit>"
    if len(text) > LIMIT:
        digest = hashlib.sha1(text.encode()).hexdigest()[:12]
        text = f"{text[:LIMIT // 2]}... ({len(text)} chars, sha1 {digest})"
    return text


def pytest_addoption(parser) -> None:
    parser.addoption("--fuzzlog", metavar="PATH",
                     help="write each boundary-fuzz example and bounded outcome to PATH")


def pytest_collection_modifyitems(config, items) -> None:
    path = config.getoption("fuzzlog")
    if not path:
        return
    log = open(path, "w", encoding="utf-8")
    config.add_cleanup(log.close)
    write = functools.partial(print, file=log)
    for module in {item.module for item in items if item.module.__name__ == "test_boundary"}:
        module.bounded = _logged_bounded(module.bounded, write)
    for item in items:
        hypothesis = getattr(item.obj, "hypothesis", None)
        if hypothesis is not None:
            hypothesis.inner_test = _logged_test(hypothesis.inner_test, write)


def _logged_test(test, write):
    @functools.wraps(test)
    def inner(*args, **kwargs):
        write(test.__name__, _text(args + tuple(sorted(kwargs.items()))))
        return test(*args, **kwargs)

    return inner


def _logged_bounded(bounded, write):
    def logged(fn, *args):
        @functools.wraps(fn)
        def call(*a):
            try:
                out = fn(*a)
            except Exception as exc:
                write("  ", fn.__name__, type(exc).__name__, _text(str(exc)))
                raise
            write("  ", fn.__name__, "ok")
            return out

        return bounded(call, *args)

    return logged
