"""Label schema: which labels exist, how they flip, strip, and project.

A schema is a CSV table with one row per label and the columns

    label,name,category,flip,host,predict,evaluate,fill

where ``category`` is one of background/brain/csf/lesion/extracerebral,
``flip`` names the contralateral partner (the label itself for midline
structures), ``host`` is the label a dropped lesion is absorbed into, and the
three flag columns (yes/no) mark labels to predict, labels scored during
evaluation, and labels whose internal cavities may be filled in
postprocessing. The packaged default table covers a whole-head brain map.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

__all__ = ["LabelEntry", "LabelSchema", "SchemaError", "load_schema", "BACKGROUND"]

BACKGROUND = 0

_CATEGORIES = ("background", "brain", "csf", "lesion", "extracerebral")


class SchemaError(ValueError):
    """Invalid label schema."""


@dataclass(frozen=True)
class LabelEntry:
    label: int
    name: str
    category: str
    flip: int
    lesion_host: int | None
    predict: bool
    evaluate: bool
    fill: bool


class LabelSchema:
    """Validated label table with the derived lookup sets used by the pipeline.

    It also holds the label-to-label maps the pipeline relabels through:
    :attr:`flips` (each label to its contralateral partner) and
    :attr:`lesion_hosts` (each lesion label to the label that absorbs it).
    """

    def __init__(self, entries, source: str = "<memory>"):
        self.entries: tuple[LabelEntry, ...] = tuple(entries)
        self.source = source
        csf = [e.label for e in self.entries if e.category == "csf"]
        self._validate(csf)

        self.names = {e.label: e.name for e in self.entries}
        self.generation_labels = frozenset(self.names)
        self.target_labels = frozenset(
            e.label for e in self.entries if e.predict and e.label != BACKGROUND
        )
        self.evaluated_labels = frozenset(e.label for e in self.entries if e.evaluate)
        self.fillable_labels = frozenset(e.label for e in self.entries if e.fill)
        self.extracerebral_labels = frozenset(
            e.label for e in self.entries if e.category == "extracerebral"
        )
        self.lesion_hosts = {
            e.label: e.lesion_host for e in self.entries if e.category == "lesion"
        }
        self.csf_label: int | None = csf[0] if csf else None
        self.flips = {e.label: e.flip for e in self.entries}

    def _validate(self, csf: list[int]) -> None:
        by_label: dict[int, LabelEntry] = {}
        for e in self.entries:
            if e.label in by_label:
                raise SchemaError(f"label {e.label} declared twice in {self.source}")
            by_label[e.label] = e
            if e.category not in _CATEGORIES:
                raise SchemaError(
                    f"label {e.label}: unknown category {e.category!r} "
                    f"(expected one of {_CATEGORIES})"
                )
        for e in self.entries:
            partner = by_label.get(e.flip)
            if partner is None:
                raise SchemaError(f"label {e.label}: flip partner {e.flip} is not declared")
            if partner.flip != e.label:
                raise SchemaError(
                    f"labels {e.label} and {e.flip} have asymmetric flip partners"
                )
            if e.category == "lesion":
                if e.lesion_host is None:
                    raise SchemaError(f"lesion label {e.label} has no host label")
                if e.lesion_host not in by_label:
                    raise SchemaError(
                        f"lesion label {e.label}: host {e.lesion_host} is not declared"
                    )
            elif e.lesion_host is not None:
                raise SchemaError(f"non-lesion label {e.label} must not declare a host")
        if len(csf) > 1:
            raise SchemaError(f"multiple csf labels declared: {csf}")
        background = [e for e in self.entries if e.label == BACKGROUND]
        if background and background[0].category != "background":
            raise SchemaError("label 0 must have category 'background'")

    def check_labels_known(self, values) -> None:
        unknown = sorted(set(int(v) for v in values) - self.generation_labels)
        if unknown:
            raise SchemaError(
                f"labels {unknown} are not declared in schema {self.source}"
            )

    def __repr__(self) -> str:
        return f"LabelSchema({len(self.entries)} labels, source={self.source!r})"


def _parse_flag(text: str, column: str, row: int) -> bool:
    lowered = text.strip().lower()
    if lowered in ("yes", "y", "true", "1"):
        return True
    if lowered in ("no", "n", "false", "0", ""):
        return False
    raise SchemaError(f"row {row}: column {column!r} has invalid flag {text!r}")


def parse_schema_csv(text: str, source: str = "<memory>") -> LabelSchema:
    reader = csv.DictReader(io.StringIO(text))
    required = {"label", "name", "category", "flip", "host", "predict", "evaluate", "fill"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        missing = sorted(required - set(reader.fieldnames or []))
        raise SchemaError(f"{source}: schema table is missing columns {missing}")
    entries = []
    for i, row in enumerate(reader, start=2):
        try:
            label = int(row["label"])
            flip = int(row["flip"])
        except (TypeError, ValueError):
            raise SchemaError(f"{source} row {i}: label and flip must be integers") from None
        host_text = (row["host"] or "").strip()
        host = int(host_text) if host_text else None
        entries.append(
            LabelEntry(
                label=label,
                name=row["name"].strip(),
                category=row["category"].strip().lower(),
                flip=flip,
                lesion_host=host,
                predict=_parse_flag(row["predict"], "predict", i),
                evaluate=_parse_flag(row["evaluate"], "evaluate", i),
                fill=_parse_flag(row["fill"], "fill", i),
            )
        )
    return LabelSchema(entries, source=source)


def load_schema(source: str | Path = "brain") -> LabelSchema:
    """Load a schema from a CSV path, or the packaged default by name."""
    if isinstance(source, str) and source == "brain":
        text = resources.files("voxsynth.data").joinpath("brain_labels.csv").read_text()
        return parse_schema_csv(text, source="builtin:brain")
    path = Path(source)
    return parse_schema_csv(path.read_text(), source=str(path))
