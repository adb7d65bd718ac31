"""Discrete-event simulation of rolling-horizon MRP under evolving forecasts.

The package couples three layers:

    config / forecast / mrp     deterministic planning world
    shopfloor / inventory / kpi physical world and its accounting
    driver / experiment / cli   one replication, factorial grids, front end

See README.md for the model and the experiment presets.
"""

__version__ = "0.1.0"

from .config import SystemConfig, build_system, planned_utilization
from .forecast import ScenarioParams, SCHEDULES
from .mrp import PlanningParams
from .driver import RunConfig, SimulationRun
from .kpi import RunSummary
from .experiment import GridSpec, Instance, PRESETS, make_config, run_grid

__all__ = [
    "__version__",
    "SystemConfig", "build_system", "planned_utilization",
    "ScenarioParams", "SCHEDULES",
    "PlanningParams",
    "RunConfig", "SimulationRun",
    "RunSummary",
    "GridSpec", "Instance", "PRESETS", "make_config", "run_grid",
]
