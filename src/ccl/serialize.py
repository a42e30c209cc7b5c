"""Self-describing JSON documents for learned models.

A model document is its model's dataclass fields, next to the format
``version`` and the model's ``kind`` tag (nhat | alpha | lambda | ncl |
pi-parametric | pi-lwl): an array is written as nested lists, a tuple as
a list, a feature provider as its registered name (a provider that is not
the one its name rebuilds is refused before the file is opened) and None
as null.
Reading a document checks its version and kind, requires exactly the
fields of the kind's class in MODEL_CLASSES (adding a model kind is one
entry there) and calls the class: its constructor holds every check of
the values, so a document is read back only as a model the library could
have built.  Floats are written with full repr precision, so a save/load
round trip reproduces every model field exactly.
"""
from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .constraint import (FeatureMatrixProvider, StateDependentConstraintModel,
                         StateIndependentConstraint, feature_provider_from_name)
from .nullspace import NullspaceComponentModel
from .policy import LwlPolicyModel, ParametricPolicyModel

FORMAT_VERSION = 2
MODEL_CLASSES = {
    "nhat": StateIndependentConstraint,
    "alpha": StateDependentConstraintModel,
    "lambda": StateIndependentConstraint,
    "ncl": NullspaceComponentModel,
    "pi-parametric": ParametricPolicyModel,
    "pi-lwl": LwlPolicyModel,
}


def _to_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, FeatureMatrixProvider):
        # load_model rebuilds the provider from its name alone, so a name it
        # cannot rebuild, or one that stands for another function, is refused
        if feature_provider_from_name(value.name) != value:
            raise ValueError(f"feature provider {value.name!r} is not the registered provider "
                             f"of that name, so its model cannot be saved")
        return value.name
    return value


def model_to_doc(model) -> dict:
    return {"version": FORMAT_VERSION, "kind": model.kind,
            **{f.name: _to_json(getattr(model, f.name)) for f in fields(model)}}


def model_from_doc(doc) -> object:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("not a model document (missing kind tag)")
    version = doc.get("version")
    # a float or a bool that compares equal to the version is not the integer version
    if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {version!r}: only version "
                         f"{FORMAT_VERSION} is read, so learn the model again")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    names = [f.name for f in fields(MODEL_CLASSES[kind])]
    missing = [name for name in names if name not in doc]
    if missing:
        raise ValueError(f"model document (kind {kind!r}) is missing field {missing[0]!r}")
    unknown = sorted(set(doc) - {"version", "kind", *names})
    if unknown:
        raise ValueError(f"model document (kind {kind!r}) has unknown field {unknown[0]!r}")
    try:
        model = MODEL_CLASSES[kind](**{name: doc[name] for name in names})
    except TypeError as exc:
        raise ValueError(f"model document (kind {kind!r}) has a malformed field: {exc}") from None
    if model.kind != kind:
        raise ValueError(f"model document (kind {kind!r}) holds the fields of a "
                         f"{model.kind!r} model")
    return model


def save_model(model, path):
    """Write a model document; see :func:`load_model` for the inverse."""
    doc = model_to_doc(model)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    """Load any model document, dispatching on its kind tag."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid model document: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: not a valid model document: nested too deeply") from None
    return model_from_doc(doc)
