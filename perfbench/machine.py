"""Description of the machine and libraries a benchmark run used."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def openblas_libraries() -> list[dict]:
    """Each OpenBLAS loaded in this process: file, build line, thread count."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and "/" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        config = _first_symbol(lib, _CONFIG_SYMBOLS)
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode().strip()
        threads = _first_symbol(lib, _THREAD_SYMBOLS)
        if threads is not None:
            threads.restype = ctypes.c_int
            entry["threads"] = threads()
        out.append(entry)
    return out


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind == "Instruction":
            continue
        caches[f"L{level}"] = (index / "size").read_text().strip()
    return caches


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def describe() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
    }
