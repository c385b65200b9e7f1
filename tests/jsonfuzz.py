"""Mutation fuzzing of the CLI's JSON inputs: topology and certificate files.

Each example starts from a valid document, replaces one field (or the
whole document) with an arbitrary JSON value, and hands the result to a
reader, which must either accept it or reject it with a documented
exception.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def json_values(*words):
    """Arbitrary JSON values; strings are drawn partly from a few rationals
    and from ``words``, so that near-valid replacements are common."""
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6)
               | st.sampled_from(["0", "1", "1/2", "2/3", "1/0", "-1", "2", *words]))
    return st.recursive(scalars,
                        lambda inner: (st.lists(inner, max_size=3)
                                       | st.dictionaries(st.text(max_size=6), inner,
                                                         max_size=3)),
                        max_leaves=6)


def field_paths(doc, prefix=()):
    """The path to every value in a JSON document, the root's included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from field_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from field_paths(value, prefix + (i,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc
