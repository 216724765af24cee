"""The per-layer tracer of the benchmark (``perfbench/tracing.py``) wraps
package functions and methods by name: a name it looks up that the
package no longer has crashes a traced run (``--trace 1``) or leaves its
metrics at 0.  The tracer is only read here, never edited."""

import importlib.util
import os
import sys

import monotone_lab
import monotone_lab.cli  # noqa: F401  (the package does not import it)

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "tracing.py")

# methods the tracer still wraps that no class defines any more: their
# metrics read 0 until the benchmark wraps what replaced them (ROADMAP
# item 1)
STALE_METHODS = {"conjugate", "graph_sample", "resolvent_scaled"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _names():
    """Every module global of the package, and every attribute of each
    class among them, by (module, name[, attribute])."""
    out = {}
    for modname, mod in sorted(sys.modules.items()):
        if modname == "monotone_lab" or modname.startswith("monotone_lab."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(modname, attr, k)] = v
    return out


def test_the_tracer_finds_every_name_it_wraps_and_restores_them():
    tracer = _load_tracing().Tracer()
    unmatched = []
    patch_method = tracer.patch_method

    def recording(classes, attr, make):
        if not any(attr in cls.__dict__ for cls in classes):
            unmatched.append(attr)
        patch_method(classes, attr, make)

    tracer.patch_method = recording
    before = _names()
    try:
        # a module-level name that is gone raises AttributeError here
        tracer.install(monotone_lab)
        assert len(tracer.patched) > 40
    finally:
        tracer.restore()
    assert set(unmatched) <= STALE_METHODS
    assert tracer.patched == []
    after = _names()
    assert all(after[key] is value for key, value in before.items())
