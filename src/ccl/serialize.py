"""Self-describing JSON documents for learned models.

Every document carries a ``kind`` tag (rbf | nhat | alpha | lambda |
ncl | pi-parametric | pi-lwl), a format version and explicit dimension
fields.  Floats are written with full repr precision, so a save/load
round trip reproduces every model field exactly.
"""
from __future__ import annotations

import json

import numpy as np

from .constraint import StateDependentConstraintModel, StateIndependentConstraint
from .core import RbfModel
from .nullspace import NullspaceComponentModel
from .policy import LwlPolicyModel, ParametricPolicyModel

FORMAT_VERSION = 1


def _nested(a):
    return np.asarray(a, dtype=float).tolist()


def _basis_fields(centers, width):
    return {"dim_x": centers.shape[0], "n_basis": centers.shape[1],
            "centers": _nested(centers), "width": float(width)}


def _rbf_fields(rbf: RbfModel):
    return dict(_basis_fields(rbf.centers, rbf.width), dim_out=rbf.dim_out,
                weights=_nested(rbf.weights))


def _centers_from_fields(doc):
    return np.asarray(doc["centers"], dtype=float).reshape(doc["dim_x"], doc["n_basis"])


def _rbf_from_fields(doc):
    return RbfModel(centers=_centers_from_fields(doc), width=doc["width"],
                    weights=np.asarray(doc["weights"], dtype=float).reshape(doc["dim_out"], doc["n_basis"]))


def model_to_doc(model) -> dict:
    doc = {"version": FORMAT_VERSION}
    if isinstance(model, RbfModel):
        doc.update(kind="rbf", **_rbf_fields(model))
    elif isinstance(model, StateIndependentConstraint):
        doc.update(kind="nhat", dim_u=model.dim_u, dim_b=model.dim_b,
                   angles=[[float(v) for v in th] for th in model.angles])
    elif isinstance(model, StateDependentConstraintModel):
        doc.update(kind=model.mode, dim_u=model.dim_u, dim_b=model.dim_b,
                   omegas=[_nested(om) for om in model.omegas],
                   signs=[float(s) for s in model.signs],
                   basis=_basis_fields(model.centers, model.width),
                   features=model.feature_name)
    elif isinstance(model, NullspaceComponentModel):
        doc.update(kind="ncl", basis=_rbf_fields(model.rbf))
    elif isinstance(model, ParametricPolicyModel):
        doc.update(kind="pi-parametric", dim_x=model.dim_x,
                   features="rbf" if model.centers is not None else "linear",
                   weights=_nested(model.weights))
        if model.centers is not None:
            doc.update(centers=_nested(model.centers), width=float(model.width))
    elif isinstance(model, LwlPolicyModel):
        doc.update(kind="pi-lwl", centers=_nested(model.centers),
                   width=float(model.width),
                   n_local=int(model.local_maps.shape[0]),
                   dim_u=int(model.local_maps.shape[1]),
                   local_maps=[_nested(b) for b in model.local_maps])
    else:
        raise ValueError(f"cannot serialize model of type {type(model).__name__}")
    return doc


def model_from_doc(doc) -> object:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError("not a model document (missing kind tag)")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    kind = doc["kind"]
    if kind == "rbf":
        return _rbf_from_fields(doc)
    if kind == "nhat":
        return StateIndependentConstraint(
            angles=tuple(np.asarray(th, dtype=float) for th in doc["angles"]),
            dim_u=doc["dim_u"])
    if kind in ("alpha", "lambda"):
        # a basis block may still carry the dim_out: 0 and empty weights
        # that earlier writers put there; neither is read
        basis = doc["basis"]
        omegas = tuple(np.asarray(om, dtype=float).reshape(-1, basis["n_basis"])
                       for om in doc["omegas"])
        return StateDependentConstraintModel(
            omegas=omegas, signs=tuple(doc["signs"]), centers=_centers_from_fields(basis),
            width=basis["width"], mode=kind, dim_u=doc["dim_u"],
            feature_name=doc.get("features"))
    if kind == "ncl":
        return NullspaceComponentModel(rbf=_rbf_from_fields(doc["basis"]))
    if kind == "pi-parametric":
        if doc["features"] == "rbf":
            return ParametricPolicyModel(
                weights=np.asarray(doc["weights"], dtype=float),
                dim_x=doc["dim_x"],
                centers=np.asarray(doc["centers"], dtype=float),
                width=doc["width"])
        return ParametricPolicyModel(weights=np.asarray(doc["weights"], dtype=float),
                                     dim_x=doc["dim_x"])
    if kind == "pi-lwl":
        maps = np.asarray(doc["local_maps"], dtype=float)
        return LwlPolicyModel(local_maps=maps.reshape(doc["n_local"], doc["dim_u"], -1),
                              centers=np.asarray(doc["centers"], dtype=float),
                              width=doc["width"])
    raise ValueError(f"unknown model kind {kind!r}")


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
    return model_from_doc(doc)
