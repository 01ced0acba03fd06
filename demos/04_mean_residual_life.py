"""Mean residual life and mean past under interval censoring.

Periodic inspections often reveal only that the system was alive at t1 and
failed by t2.  Conditional on that, a component's expected signed distance
from t2 is the mean residual life phi; its mirror t2 - E{X_1 | ...} is the
mean past psi.  phi can be negative: the component itself may be one of the
failures that brought the system down inside the window.
"""

import ordstat as os_

model = os_.Exponential(1.0)
cfg = os_.SystemConfig(n=10, r=4)

print("Fixed window (1, 2), varying failure threshold r (n = 10):")
print("  r    phi = E{X1 - t2 | window}    psi")
for r in [1, 2, 4, 7, 10]:
    summary = os_.mrl_summary(os_.SystemConfig(10, r), model, os_.Window(1.0, 2.0))
    print(f"  {r:2d}   {summary.phi:12.6f}              {summary.psi:9.6f}")
print("Larger r means more failures before the window, so the inspected")
print("component is more likely to be long dead and phi drops.\n")

print("Sliding unit-width windows (n = 10, r = 4):")
print("  window        phi         psi         error bound")
for t1 in [0.25, 0.5, 1.0, 2.0, 3.0]:
    w = os_.Window(t1, t1 + 1.0)
    s = os_.mrl_summary(cfg, model, w)
    print(f"  ({t1:4.2f},{t1 + 1:4.2f})  {s.phi:9.5f}  {s.psi:10.5f}   {s.truncation_bound:9.2e}")

print()
print("The conditional density behind these numbers (window (1,2), r = 4):")
w = os_.Window(1.0, 2.0)
for x in [0.25, 0.75, 1.0, 1.5, 2.0, 2.5, 3.5]:
    g = os_.cond_pdf_between(cfg, model, x, w)
    print(f"  x = {x:4.2f}  density {g:8.5f}  {'#' * round(40 * g)}")

print()
print("Sanity: with r = n and window (0, 1) the component is an independent")
print("truncated exponential, so E{X1 | window} has a closed form:")
import math
closed = (math.e - 2.0) / (math.e - 1.0)
got = os_.mean_residual(os_.SystemConfig(5, 5), model, os_.Window(0.0, 1.0)) + 1.0
print(f"  library {got:.10f}   closed form {closed:.10f}")
