"""Bundled worked-example webs and diagrams with their expected invariants.

Each entry records the values the calculators must reproduce: the Tait
count and planar dimension where the web is planar, the homology
dimension and Euler characteristic where the module structure is known.
The table is plain data: the calculators are imported by the functions
that load or verify an entry, so listing it loads no computation layer.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources


class Entry(
    namedtuple(
        "Entry",
        "name web_file diagram_file module_name tait_count planar_dim dim chi",
        defaults=(None,) * 7,
    )
):
    """A catalogued example: its name, its bundled files and module name,
    and the expected values (None where not asserted).  ``planar_dim`` is
    asserted only for planar embeddings."""

    __slots__ = ()


CATALOGUE = (
    Entry("unknot", "unknot.web.json", "unknot.diagram.json", "unknot",
          tait_count=3, planar_dim=3, dim=3, chi=3),
    Entry("unlink_2", "unlink_2.web.json", "unlink_2.diagram.json", "unlink_2",
          tait_count=9, planar_dim=9, dim=9, chi=9),
    Entry("theta", "theta.web.json", "theta.diagram.json", "theta",
          tait_count=6, planar_dim=6, dim=6, chi=6),
    Entry("tetrahedron", "tetrahedron.web.json", "tetrahedron.diagram.json", "tetrahedron",
          tait_count=6, planar_dim=6, dim=6, chi=6),
    Entry("cube", "cube.web.json", "cube.diagram.json", None,
          tait_count=24, planar_dim=24, dim=24, chi=24),
    Entry("hopf", None, "hopf.diagram.json", "hopf",
          tait_count=9, dim=9, chi=9),
    Entry("lhc", None, "lhc.diagram.json", "lhc",
          tait_count=0, dim=4, chi=0),
    Entry("trefoil", None, "trefoil.diagram.json", "trefoil",
          tait_count=3, dim=7, chi=3),
    Entry("handcuffs", "handcuffs.web.json", "handcuffs.diagram.json", None,
          tait_count=0, planar_dim=0, dim=0, chi=0),
    Entry("tangled_handcuffs", None, "tangled_handcuffs.diagram.json", "tangled_handcuffs",
          tait_count=0, dim=0, chi=0),
    Entry("k33", None, "k33.diagram.json", "k33",
          tait_count=12, dim=12, chi=0),
    Entry("kinoshita_theta", "kinoshita_theta.web.json", None, "kinoshita_theta",
          tait_count=6, dim=6),
)


def data_text(filename: str) -> str:
    return resources.files("webfoam").joinpath("data", filename).read_text()


def load_web(entry: Entry) -> webs.Web:
    from . import webs

    if entry.web_file:
        return webs.parse_web(data_text(entry.web_file))
    if entry.diagram_file:
        return webs.underlying_web(load_diagram(entry))
    raise ValueError(f"entry {entry.name} carries no web")


def load_diagram(entry: Entry) -> webs.Diagram:
    from . import webs

    if not entry.diagram_file:
        raise ValueError(f"entry {entry.name} carries no diagram")
    return webs.parse_diagram(data_text(entry.diagram_file))


def get(name: str) -> Entry:
    for e in CATALOGUE:
        if e.name == name:
            return e
    raise KeyError(name)


def verify_entry(entry: Entry) -> list[str]:
    """Recompute every stored expectation; return failure messages."""
    from . import modules, skein, tait

    problems = []
    web = load_web(entry)
    if entry.tait_count is not None:
        got = tait.tait_count(web)
        if got != entry.tait_count:
            problems.append(f"{entry.name}: tait {got} != {entry.tait_count}")
    if entry.planar_dim is not None:
        got = tait.planar_lsharp_dim(web)
        if got != entry.planar_dim:
            problems.append(f"{entry.name}: planar_dim {got} != {entry.planar_dim}")
    if entry.chi is not None and entry.diagram_file:
        got = skein.euler_char(load_diagram(entry))
        if got != entry.chi:
            problems.append(f"{entry.name}: chi {got} != {entry.chi}")
    if entry.module_name is not None:
        mod = modules.known_module(entry.module_name)
        if entry.dim is not None and mod.dim != entry.dim:
            problems.append(f"{entry.name}: module dim {mod.dim} != {entry.dim}")
        if entry.chi is not None and mod.grading is not None:
            got = mod.euler_characteristic()
            if got != entry.chi:
                problems.append(f"{entry.name}: module chi {got} != {entry.chi}")
    return problems


def verify_all() -> list[str]:
    problems = []
    for entry in CATALOGUE:
        problems.extend(verify_entry(entry))
    return problems
