"""Learn structured mechanical models from configuration time-series.

Subpackages by role:

- diffcore: the reverse-mode tape that training's loss graphs run on
- mechanics: Lagrangian systems, discrete Euler-Lagrange residuals
- integrators: variational integration, noisy trajectory datasets
- netparam: the structured-model parameterization (mass net, potential net)
- smoother: Kalman filter / RTS smoother with EM noise estimation
- training: losses, Adam, training loop
- expcli: experiment driver and command-line interface
"""

__version__ = "0.1.0"
