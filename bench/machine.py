"""The machine a result was measured on, stored next to every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy


def _blas() -> dict:
    info: dict = {}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    # numpy wheels bundle OpenBLAS under numpy.libs; ask the loaded copy for its pool size.
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            info.update(threads=get_threads(), config=get_config().decode())
            return info
    info["threads"] = None  # not an OpenBLAS this record knows how to ask
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _process_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def machine_record(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "process_threads": _process_threads(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
