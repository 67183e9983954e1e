"""
Pricing individual training points by their influence on test loss.

Fits a line to noisy observations, then asks for each training point: how
much would the test risk change if this point had never been contributed?
Three answers are compared: the exact leave-one-out value, the cheap
first-order estimate, and the second-order refinement.
"""

import numpy as np

from influence_market import (
    approximation_errors,
    exact_influences,
    first_order_influences,
    fit,
    risk,
    second_order_influences,
    build_population,
    generate_world,
    independent_test_set,
    report_stream,
)

world = generate_world(seed=8)
slope, bias = world.true_params.weights[0], world.true_params.bias
print(f"ground truth: y = {slope:+.3f} x {bias:+.3f} + noise\n")

train = report_stream(build_population(1000, 1.0), world, seed=1)
test = independent_test_set(world, 200, seed=2)
model = fit(train)
print(f"fitted:       y = {model.params.weights[0]:+.3f} x {model.params.bias:+.3f}")
print(f"test risk:    {risk(test, model.params):.4f}\n")

exact = exact_influences(train, test, model=model)
first = first_order_influences(model, train, test)
second = second_order_influences(model, train, test)

print("five most valuable points (positive influence = removal hurts):")
for j in np.argsort(exact)[-5:][::-1]:
    print(
        f"  x={train.X[j, 0]:+.2f} y={train.y[j]:+.2f}   "
        f"exact={exact[j]:+.3e}  first={first[j]:+.3e}  second={second[j]:+.3e}"
    )

print("\nfive most harmful points:")
for j in np.argsort(exact)[:5]:
    print(
        f"  x={train.X[j, 0]:+.2f} y={train.y[j]:+.2f}   "
        f"exact={exact[j]:+.3e}  first={first[j]:+.3e}  second={second[j]:+.3e}"
    )

# First-order estimates always sum to zero (the fit is stationary), so they
# cannot rank early contributions against late ones; second order can.
print(f"\nsum of first-order estimates:  {first.sum():+.2e}  (zero by construction)")
print(f"sum of second-order estimates: {second.sum():+.2e}")
print(f"sum of exact influences:       {exact.sum():+.2e}")

for order, report in approximation_errors(train, test, model=model).items():
    print(
        f"\n{order}-order error vs exact: L1={report.l1:.3e}  "
        f"relative L1={report.relative_l1:.3e}  L2={report.l2:.3e}"
    )

# One point's exact price is the plural kernel's on that index alone.
j = int(np.argmax(exact))
alone = exact_influences(train, test, model=model, indices=[j])[0]
print(f"\nmost valuable point priced alone: {alone:+.3e} (full pass: {exact[j]:+.3e})")
