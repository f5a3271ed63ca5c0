"""Result artifacts: persist experiment outputs as JSON + Markdown.

Table drivers return dataclasses; this module serializes them so runs
can be archived, diffed across machines, and pasted into
EXPERIMENTS.md.  ``save_report`` writes ``<name>.json`` (machine
readable) and ``<name>.md`` (the rendered table).
"""

from __future__ import annotations

import dataclasses
import json
import os
from datetime import date
from typing import Any, Dict, Optional


def _to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def save_report(
    directory: str,
    name: str,
    rows: Any,
    rendered: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> str:
    """Write ``<name>.json`` and ``<name>.md`` under ``directory``.

    Returns the JSON path.  ``rows`` is any dataclass/list/dict
    structure; ``rendered`` is the human-readable table text.
    """
    os.makedirs(directory, exist_ok=True)
    payload = {
        "experiment": name,
        "date": date.today().isoformat(),
        "metadata": metadata or {},
        "rows": _to_jsonable(rows),
    }
    json_path = os.path.join(directory, f"{name}.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    md_path = os.path.join(directory, f"{name}.md")
    with open(md_path, "w") as handle:
        handle.write(f"# {name}\n\n")
        for key, value in (metadata or {}).items():
            handle.write(f"* {key}: {value}\n")
        handle.write("\n```\n")
        handle.write(rendered.rstrip("\n"))
        handle.write("\n```\n")
    return json_path
