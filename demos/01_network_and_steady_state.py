"""Build a small network and cross-check its steady temperature field.

Walks through the graph data model (supply/return duplication, typed
edges), assembles the sparse steady system, solves it, and verifies the
solution against a dense direct solve and against the analytic
advection-loss profile of a single pipe.
"""

import math

import numpy as np

from dhnopt.fixtures import desk_network, pipe_chain
from dhnopt.network import control_volumes
from dhnopt.thermal import PhysicalConstants, assemble, solve_steady

graph, flow = desk_network()
print(f"desk network: {graph.n_nodes} nodes, {graph.n_edges} edges, "
      f"{len(graph.consumer_edges)} consumers, "
      f"{len(graph.producer_edges)} plant")
volumes = control_volumes(graph)
print(f"total water volume: {volumes.sum():.2f} m3")

system = assemble(graph, flow, volumes, PhysicalConstants())
deltas = np.full(system.bc.n_consumers, 25.0)  # 25 °C drop per substation
y = solve_steady(system, plant_temps=[100.0], deltas=deltas, ambient_c=10.0)
supply = y[system.bc.consumer_supply_nodes]
print(f"plant at 100.0 °C -> consumer supply temperatures "
      f"{supply.min():.2f} .. {supply.max():.2f} °C")

# same solve with a dense LU as an independent oracle
b = system.rhs_steady([100.0], deltas, 10.0)
dense = np.linalg.solve(system.steady_matrix().toarray(), b)
print(f"sparse vs dense mismatch: {np.max(np.abs(y - dense)):.2e} °C")

# refine a single 1 km pipe and watch the outlet approach the analytic
# profile y_a + (y_in - y_a) * exp(-k*L/(cp*mdot)) at first order
cp, mdot, length = 4186.0, 0.05, 1000.0
k = cp * mdot / length
y_exact = 10.0 + 70.0 * math.exp(-1.0)
print(f"\nanalytic pipe outlet: {y_exact:.4f} °C")
print(f"{'cells':>6} {'outlet °C':>12} {'error °C':>12}")
for n in (1, 4, 16, 64, 256):
    g, f = pipe_chain(n, total_length_m=length, mdot_kg_s=mdot,
                      htc_w_per_m_c=k)
    s = assemble(g, f, control_volumes(g), PhysicalConstants())
    yn = solve_steady(s, [80.0], [0.0], 10.0)
    out = yn[g.node_index[f"S{n}"]]
    print(f"{n:>6} {out:>12.4f} {abs(out - y_exact):>12.2e}")
