import os
import tracemalloc

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from fusiondepth import autodiff as ad

# filled by the acceptance tests; echoed after the run so the per-criterion
# verdicts survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def retained(build):
    """build() and the bytes that tracemalloc still counts once it has
    returned: what its result keeps alive."""
    tracemalloc.start()
    try:
        result = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held


def numeric_grad(build, leaves, step=1e-5):
    """Central finite differences of a scalar graph w.r.t. each leaf.

    build() must construct the graph from the current leaf values and
    return the scalar loss tensor. Returns one array per leaf, matching
    autodiff's analytic layout.
    """
    grads = []
    for leaf in leaves:
        g = np.zeros(leaf.values.size)
        for i in range(leaf.values.size):
            kept = leaf.values.flat[i]
            leaf.values.flat[i] = kept + step
            hi = build().item()
            leaf.values.flat[i] = kept - step
            lo = build().item()
            leaf.values.flat[i] = kept
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g.reshape(leaf.shape))
    return grads


def analytic_grad(build, leaves):
    grads = ad.backward(build())
    return [grads[leaf] if leaf in grads else np.zeros_like(leaf.values) for leaf in leaves]


def relative_error(analytic, numeric):
    num = np.linalg.norm(analytic - numeric)
    den = np.linalg.norm(analytic) + np.linalg.norm(numeric)
    if den == 0.0:
        return 0.0
    return num / den


def check_gradients(build, leaves, tol=1e-4, step=1e-5):
    """Assert analytic vs numeric agreement for every leaf; returns the
    worst relative error seen."""
    exact = analytic_grad(build, leaves)
    approx = numeric_grad(build, leaves, step=step)
    worst = 0.0
    for leaf, a, n in zip(leaves, exact, approx):
        err = relative_error(a, n)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch on leaf {leaf.shape}: rel err {err:.3e}"
    return worst
