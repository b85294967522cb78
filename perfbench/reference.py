"""The host-speed yardstick of the benchmark: a fixed pure-Python workload
that does not import cnotcalc.

    python3 perfbench/reference.py

It splits and converts gate lines and runs a bit-mask gate loop, the same
kind of interpreter work the CLI commands do.  ``run.py`` times it after
every other job; its median scales the end-to-end times to a fixed host
speed.
"""

lines = ["cnot %d %d" % (i % 64, (i * 7 + 1) % 64) for i in range(40000)]
gates = []
for line in lines:
    kind, c, t = line.split()
    gates.append((kind, int(c), int(t)))
wires = [1 << i for i in range(64)]
for _, c, t in gates:
    wires[t] ^= wires[c]
print(sum(wires) % 7)
