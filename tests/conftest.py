import dataclasses

import pytest

from nmpg import solve


@pytest.fixture
def solve_recording():
    """`solve` that also returns the iterates x^0, x^1, ..., x^final.

    solve calls f.grad once at x0 and once at each accepted point, in order,
    so a copy of the problem whose f.grad records its argument sees exactly
    the iterate sequence of a run that ends converged or at max_iters.
    """

    def run(problem, params, x0):
        iterates = []
        grad = problem.f.grad

        def recording(x):
            iterates.append(x.copy())
            return grad(x)

        f = dataclasses.replace(problem.f, grad=recording)
        return solve(dataclasses.replace(problem, f=f), params, x0), iterates

    return run
