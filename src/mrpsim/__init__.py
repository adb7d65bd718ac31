"""Discrete-event simulation of rolling-horizon MRP under evolving forecasts.

    config / forecast / mrp     deterministic planning world
    shopfloor / inventory / kpi physical world and its accounting
    driver / experiment / cli   one replication, factorial grids, front end
"""

__version__ = "0.1.0"
