"""Content fingerprint of the ``repro`` source tree.

A leaf module -- it imports nothing from :mod:`repro` -- so every layer
can key its caches on the code that produced them: the runtime's task
keys (:func:`repro.runtime.tasks.task_key`) and the solver engine's
canonical problem keys (:func:`repro.core.engine.canonical_problem_key`)
both fold it in.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` package.

    Any source edit changes the fingerprint, which changes every task
    key, which makes the on-disk cache miss -- stale results can never
    be served after the code that produced them changed.
    """
    root = pathlib.Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
