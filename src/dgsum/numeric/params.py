"""Named trainable parameters: initialization and checkpoint round trips."""

from __future__ import annotations

import zipfile

import numpy as np

from ..errors import ConfigError, DataError
from .tensor import Tensor

CHECKPOINT_VERSION = 2  # 2: one MGAT weight per channel, mgat{l}.{ch}.W / .a


def xavier_bound(shape: tuple[int, ...]) -> float:
    """Glorot uniform bound; vectors are treated as fan_out = 1."""
    if len(shape) >= 2:
        fan_in, fan_out = shape[0], shape[1]
    else:
        fan_in, fan_out = shape[0], 1
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """A Glorot uniform draw of ``shape``, in float64."""
    b = xavier_bound(shape)
    return rng.uniform(-b, b, size=shape)


def set_precision(mode: str) -> None:
    """What is left of a process-wide precision switch: it accepts "double",
    the dtype of a default ``ParamStore``, and changes nothing. A model's
    precision is ``ModelConfig.precision``."""
    if mode != "double":
        raise ConfigError(f"precision {mode!r} is set per model: use ModelConfig.precision")


class ParamStore:
    """Ordered name -> Tensor map of the trainable parameters, all of one dtype."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, shape: tuple[int, ...], rng: np.random.Generator,
            init: str = "xavier") -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if init == "xavier":
            data = xavier_uniform(shape, rng)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ConfigError(f"unknown init {init!r}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def total_count(self) -> int:
        return sum(t.size for t in self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def clone(self) -> "ParamStore":
        out = ParamStore(self.dtype)
        for name, t in self._params.items():
            c = Tensor(t.data.copy(), requires_grad=True)
            out._params[name] = c
        return out

    # checkpointing -----------------------------------------------------
    def save(self, path) -> None:
        arrays = {"__format_version__": np.asarray([CHECKPOINT_VERSION])}
        for name, t in self._params.items():
            arrays[name] = t.data
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "ParamStore":
        try:
            with open(path, "rb") as fh:  # np.load leaks its own handle on a bad zip
                if fh.read(4) != b"PK\x03\x04":  # what np.savez writes first
                    raise DataError(f"cannot read checkpoint {path}: not a checkpoint archive")
                fh.seek(0)
                archive = np.load(fh)
                if "__format_version__" not in archive:
                    raise DataError(f"{path}: missing checkpoint format header")
                version = int(archive["__format_version__"][0])
                if version != CHECKPOINT_VERSION:
                    raise DataError(f"{path}: unsupported checkpoint version {version}")
                arrays = [(n, archive[n]) for n in archive.files if n != "__format_version__"]
                out = cls(arrays[0][1].dtype if arrays else np.float64)
                for name, a in arrays:  # all of the first parameter's floating dtype
                    if a.dtype.kind != "f" or a.dtype != out.dtype:
                        raise DataError(f"{path}: parameter {name!r} is {a.dtype}, not one floating "
                                        f"dtype with the rest ({arrays[0][0]!r} is {out.dtype})")
                    if not np.isfinite(a).all():
                        raise DataError(f"{path}: parameter {name!r} holds a non-finite value")
                    out._params[name] = Tensor(a, requires_grad=True)
                return out
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
            raise DataError(f"cannot read checkpoint {path}: {getattr(e, 'strerror', None) or e}")

    def load_data_from(self, path) -> None:
        """Fill this store's tensors from a checkpoint, cast to their dtype, validating shapes."""
        loaded = ParamStore.load(path)
        missing = set(self._params) - set(loaded._params)
        extra = set(loaded._params) - set(self._params)
        if missing or extra:
            raise ConfigError(f"{path}: checkpoint mismatch: missing {sorted(missing)}, "
                              f"unexpected {sorted(extra)}")
        for name, t in self._params.items():
            src = loaded[name]
            if src.shape != t.shape:
                raise ConfigError(f"{path}: checkpoint parameter {name!r}: shape {src.shape} "
                                  f"!= expected {t.shape}")
            t.data[...] = src.data
