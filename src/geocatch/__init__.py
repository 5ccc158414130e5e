"""geocatch: exact event-driven 2D billiard/geodesic simulation, moving-ball
catcher synthesis, scattering-domain evader construction, and t-GCC checks."""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    Point2,
    Direction,
    Scene,
    SceneError,
    build_obstacle_scene,
    torus,
    rectangle,
    disk,
)
from .flow import (  # noqa: F401
    BounceEvent,
    RayState,
    Trajectory,
    bounces,
    flow_torus,
    position_at,
    reflect,
    trace,
)
from .symbolic import (  # noqa: F401
    AngleInterval,
    Itinerary,
    itinerary_of,
    realize,
    rho_for,
    solve_itinerary,
    stability_report,
)
from .catcher import (  # noqa: F401
    CatcherPath,
    build_catcher,
    dense_sites,
)
from .evader import (  # noqa: F401
    EvasionCertificate,
    ZoneSchedule,
    plan_schedule,
    random_slow_path,
    realize_schedule,
    validate_schedule,
    verify_evasion,
)
from .tgcc import TgccReport, check_tgcc, first_hit_time  # noqa: F401
from .analysis import (  # noqa: F401
    OccupancySeries,
    dichotomy_check,
    disk_structure,
    occupancy,
    subsequence_grc,
)
