"""Discrete-event simulation of rolling-horizon MRP under evolving forecasts.

The package couples three layers:

    config / forecast / mrp     deterministic planning world
    shopfloor / inventory / kpi physical world and its accounting
    driver / experiment / cli   one replication, factorial grids, front end

See README.md for the model and the experiment presets.
"""

__version__ = "0.1.0"
