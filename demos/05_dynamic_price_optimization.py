"""Exploit cheap hours: the network as a thermal battery.

Under a two-level day-ahead price the optimizer charges the pipes
during cheap night hours (bounded by the 140 °C plant limit) and coasts
through expensive hours on stored heat; by the horizon end the charge
is depleted since late storage cannot pay off anymore.
"""

import numpy as np

from dhnopt.fixtures import desk_scenario
from dhnopt.objective import loss_energy
from dhnopt.optimizer import optimize
from dhnopt.thermal import energy_balance, simulate, stored_energy

LEVEL = 88.5  # near the static low-temperature operating point
scenario = desk_scenario(static=False, initial_control_c=LEVEL)
u0 = np.full((1, scenario.grid.n_steps), LEVEL)

flat = simulate(scenario.graph, scenario.flow, scenario, u0)
cost0 = loss_energy(flat, scenario.graph, scenario.flow, scenario.price)
print(f"constant {LEVEL} °C under dynamic prices: {cost0:.0f} EUR")

u_opt, report = optimize(scenario, u0)
optimized = simulate(scenario.graph, scenario.flow, scenario, u_opt)
cost1 = loss_energy(optimized, scenario.graph, scenario.flow, scenario.price)
print(f"optimized: {cost1:.0f} EUR "
      f"-> cost reduction {100 * (cost0 - cost1) / cost0:.1f} %")
print(f"control now swings {u_opt.min():.1f} .. {u_opt.max():.1f} °C "
      f"(plant limit 140 °C)")

times = scenario.grid.times()[1:]
price = scenario.price.step_prices  # the curve, read onto the solved steps
balance = energy_balance(scenario.system, optimized, scenario.deltas,
                         scenario.ambient)
corr = np.corrcoef(balance["injection_w"], price)[0, 1]
print(f"corr(plant injection, price) = {corr:.2f} "
      f"(negative: inject when cheap)")

ref = float(np.mean(scenario.ambient))
energy = stored_energy(optimized.values_c, scenario.volumes,
                       scenario.constants, reference_c=ref)
print(f"\nfirst day, hourly (cheap window 02:00-08:00):")
print(f"{'hour':>6} {'price €/MWh':>12} {'plant °C':>9} "
      f"{'injection kW':>13} {'stored GJ':>10}")
for k in range(0, 96, 4):
    print(f"{times[k] / 3600.0:>6.0f} {price[k]:>12.0f} "
          f"{u_opt[0, k]:>9.1f} "
          f"{balance['injection_w'][k] / 1e3:>13.0f} "
          f"{energy[k + 1] / 1e9:>10.2f}")
print(f"\nstored energy: initial {energy[0] / 1e9:.2f} GJ, "
      f"peak {energy.max() / 1e9:.2f} GJ, "
      f"final {energy[-1] / 1e9:.2f} GJ "
      f"({100 * abs(energy[-1] - energy[0]) / energy[0]:.1f} % from initial)")
