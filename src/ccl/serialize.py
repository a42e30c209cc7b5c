"""Self-describing JSON documents for learned models.

Every model class speaks one protocol: a ``kind`` tag (nhat | alpha |
lambda | ncl | pi-parametric | pi-lwl), ``to_doc()`` for its fields,
a ``from_doc(doc)`` classmethod that reads them back and ``metrics(data)``
for evaluation.  This module adds the format version, finds the class of
a document by its kind in MODEL_CLASSES (adding a model kind is one entry
there) and does the file I/O.  Floats are written with full repr
precision, so a save/load round trip reproduces every model field exactly.
"""
from __future__ import annotations

import json

from .constraint import StateDependentConstraintModel, StateIndependentConstraint
from .nullspace import NullspaceComponentModel
from .policy import LwlPolicyModel, ParametricPolicyModel

FORMAT_VERSION = 1
MODEL_CLASSES = {
    "nhat": StateIndependentConstraint,
    "alpha": StateDependentConstraintModel,
    "lambda": StateIndependentConstraint,
    "ncl": NullspaceComponentModel,
    "pi-parametric": ParametricPolicyModel,
    "pi-lwl": LwlPolicyModel,
}


def model_to_doc(model) -> dict:
    return {"version": FORMAT_VERSION, "kind": model.kind, **model.to_doc()}


def model_from_doc(doc) -> object:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("not a model document (missing kind tag)")
    version = doc.get("version")
    # 1.0 and true compare equal to 1 but are not the integer version
    if isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {version!r}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        return MODEL_CLASSES[kind].from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"model document (kind {kind!r}) is missing field {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"model document (kind {kind!r}) has a malformed field: {exc}") from None


def save_model(model, path):
    """Write a model document; see :func:`load_model` for the inverse."""
    with open(path, "w") as fh:
        json.dump(model_to_doc(model), fh, indent=2, sort_keys=True)
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
