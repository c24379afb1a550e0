"""Per-layer tracing of gmpmat from outside the program.

Layers are the modules of ``src/gmpmat``.  ``Tracer.install`` wraps every
public function and public method of each module, and rebinds the
wrapper in every gmpmat namespace that holds the original (for example
``resolvent.transfer``, ``isospectral.lambda_k`` and
``cli.eval_transfer``), so module-internal calls are counted too.
``serialize.fmt`` is left unwrapped: it runs once per CSV cell, and its
cost is inside the encode span that calls it.

Each call records a span (name, start, end, parent span, operation id,
raised) in flat arrays; ``save`` writes them out when the run ends.  A
layer's self time is its spans' time minus the time of their direct
child spans.

Which end-to-end metric each layer metric should move, on which workload:

- ``startup.*``: ``op_p50_ms``/``ops_per_s`` on cli_small, ``wall_s``
  slightly on grid_large, solver_sweep only through ``setup_s``.
- ``cli.*``: ``wall_s`` on grid_large.
- ``serialize.*``: ``rows_per_s``, ``wall_s`` and ``peak_rss_mb`` on
  grid_large; cli_small should stay flat.
- ``kernels.*`` (module ``_kernels``): ``wall_s`` on grid_large.
- ``transfer.*``: ``wall_s`` on grid_large (resolvent grid) and on
  solver_sweep (Jacobians).
- ``resolvent.*``: ``wall_s`` on grid_large.
- ``discriminant.*``: ``fail_ratio``, ``wall_s`` and ``op_tail_ms`` on
  solver_sweep.
- ``gmp.*``: ``wall_s`` on grid_large (gmp build, spectrum eig) and on
  solver_sweep (magic_verify, spectrum_truncation).
- ``isospectral.*``: ``wall_s`` and ``op_tail_ms`` on solver_sweep, and
  ``wall_s`` on grid_large (jacobi grid).
- ``ortho.*``: ``op_p50_ms`` on cli_small.
"""

import functools
import importlib
import inspect
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "_kernels", "transfer", "resolvent", "discriminant", "gmp",
          "isospectral", "ortho")
SKIP = {"serialize.fmt"}
# Bytes of the arrays a grid kernel call reads and writes: the z grid and
# the four complex entries of the transfer matrix.
KERNEL_BYTES_PER_POINT = 5 * 16


def _count_written(extra, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    extra["rows_out"] += text.count("\n")
    extra["bytes_out"] += len(text)


def _count_points(extra, args, kwargs):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    extra["points"] += len(zs)


HOOKS = {"serialize.write_text": _count_written, "_kernels.transfer_grid": _count_points}


class Tracer:
    """Records one span per call of a wrapped gmpmat function."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.extra = {"rows_out": 0, "bytes_out": 0, "points": 0}
        self._patches = []

    def _wrap(self, key, fn):
        tid = len(self.names)
        self.names.append(key)
        hook = HOOKS.get(key)
        name_of, parent, op, raised = self.name_of, self.parent, self.op, self.raised
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(tid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self.extra, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap public functions of every layer, in every gmpmat namespace."""
        modules = {layer: importlib.import_module(f"gmpmat.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in SKIP:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        namespaces = [sys.modules["gmpmat"]] + [
            m for name, m in sys.modules.items() if name.startswith("gmpmat.")
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _wrap_methods(self, prefix, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", obj))
            elif isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"{prefix}.{attr}", obj.__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            op=np.array(self.op, dtype=np.int32),
            raised=np.array(self.raised, dtype=np.int8),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def layer_metrics(self):
        """Per-layer counts and times, keyed by metric name, with units."""
        name = np.array(self.name_of, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        raised = np.array(self.raised, dtype=np.int8)
        dur = np.array(self.end) - np.array(self.start)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        layer_names = sorted({key.split(".")[0] for key in self.names})
        layer_of_name = np.array([layer_names.index(k.split(".")[0]) for k in self.names])
        layer = layer_of_name[name] if len(name) else name
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        counts = np.bincount(name, minlength=n_names)
        fails = np.bincount(name, weights=raised, minlength=n_names)
        inclusive = np.bincount(name, weights=np.where(parent_name != name, dur, 0.0),
                                minlength=n_names)
        idx = {key: i for i, key in enumerate(self.names)}

        def calls(key):
            return int(counts[idx[key]])

        def secs(*keys):
            return float(sum(inclusive[idx[k]] for k in keys))

        def layer_sum(values, lay, mask=True):
            return float(np.sum(values[(layer == layer_names.index(lay)) & mask]))

        def busy(lay):
            return layer_sum(dur, lay, outer)

        def entries(lay):
            return int(np.sum(outer & (layer == layer_names.index(lay))))

        def self_s(lay):
            return layer_sum(dur - child, lay)

        kernel_busy = busy("_kernels")
        points = self.extra["points"]
        s, c, b = "s", "count", "B"
        return {
            "cli.calls": (calls("cli.main"), c),
            "cli.self_s": (self_s("cli"), s),
            "serialize.load_s": (secs("serialize.load_json"), s),
            "serialize.encode_s": (secs("serialize.dumps", "serialize.rows_csv",
                                        "serialize.lower_triangle_csv"), s),
            "serialize.write_s": (secs("serialize.write_text"), s),
            "serialize.rows_out": (self.extra["rows_out"], c),
            "serialize.bytes_out": (self.extra["bytes_out"], b),
            "kernels.calls": (entries("_kernels"), c),
            "kernels.busy_s": (kernel_busy, s),
            "kernels.points": (points, c),
            "kernels.points_per_s": (points / kernel_busy if kernel_busy else 0.0, "1/s"),
            "kernels.bytes_computed": (points * KERNEL_BYTES_PER_POINT, b),
            "transfer.transfer_calls": (calls("transfer.transfer"), c),
            "transfer.lambda_k_calls": (calls("transfer.lambda_k"), c),
            "transfer.busy_s": (busy("transfer"), s),
            "transfer.self_s": (self_s("transfer"), s),
            "resolvent.pair_calls": (calls("resolvent.resolvent_pair"), c),
            "resolvent.busy_s": (busy("resolvent"), s),
            "resolvent.self_s": (self_s("resolvent"), s),
            "discriminant.solve_calls": (calls("discriminant.solve_discriminant"), c),
            "discriminant.solve_failed": (int(fails[idx["discriminant.solve_discriminant"]]), c),
            "discriminant.solve_s": (secs("discriminant.solve_discriminant"), s),
            "discriminant.bands_s": (secs("discriminant.bands"), s),
            "discriminant.eval_calls": (calls("discriminant.eval_discriminant"), c),
            "discriminant.self_s": (self_s("discriminant"), s),
            "gmp.assemble_s": (secs("gmp.assemble"), s),
            "gmp.dense_s": (secs("gmp.BandedOperator.to_dense"), s),
            "gmp.eig_s": (secs("gmp.BandedOperator.eigenvalues"), s),
            "gmp.check_s": (secs("gmp.lambda_positivity_test",
                                 "gmp.check_shifted_inverse_structure"), s),
            "gmp.self_s": (self_s("gmp"), s),
            "isospectral.project_calls": (calls("isospectral.project_to_manifold"), c),
            "isospectral.project_failed": (int(fails[idx["isospectral.project_to_manifold"]]), c),
            "isospectral.project_s": (secs("isospectral.project_to_manifold"), s),
            "isospectral.trace_s": (secs("isospectral.trace_torus"), s),
            "isospectral.magic_s": (secs("isospectral.magic_verify"), s),
            "isospectral.band_edges_s": (secs("isospectral.jacobi_band_edges"), s),
            "isospectral.jacobi_transfer_calls": (calls("isospectral.jacobi_transfer"), c),
            "isospectral.self_s": (self_s("isospectral"), s),
            "ortho.calls": (entries("ortho"), c),
            "ortho.busy_s": (busy("ortho"), s),
        }


def _wall(cmd):
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _importtime():
    """Cumulative import seconds of numpy and scipy.linalg, and gmpmat's own."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gmpmat.cli"],
        check=True, capture_output=True, text=True,
    ).stderr
    out = {"numpy": 0.0, "scipy.linalg": 0.0, "gmpmat": 0.0}
    for line in err.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # header line
        self_us, cum_us, pkg = int(fields[0]), int(fields[1]), fields[2].strip()
        if pkg in ("numpy", "scipy.linalg"):
            out[pkg] = cum_us / 1e6
        elif pkg == "gmpmat" or pkg.startswith("gmpmat."):
            out["gmpmat"] += self_us / 1e6
    return out


def startup_metrics(repeats=5):
    """Interpreter and import start-up, from fresh interpreters (medians)."""
    py = sys.executable
    interp = statistics.median(_wall([py, "-c", "pass"]) for _ in range(repeats))
    cli = statistics.median(_wall([py, "-c", "import gmpmat.cli"]) for _ in range(repeats))
    probes = [_importtime() for _ in range(3)]

    def med(key):
        return statistics.median(p[key] for p in probes)

    return {
        "startup.interpreter_s": (interp, "s"),
        "startup.numpy_s": (med("numpy"), "s"),
        "startup.scipy_linalg_s": (med("scipy.linalg"), "s"),
        "startup.gmpmat_s": (med("gmpmat"), "s"),
        "startup.import_cli_s": (cli - interp, "s"),
    }
