"""A clock for the timing protocol's tests."""


class SimulatedClock:
    """Deterministic monotonic clock; time moves only via ``advance``."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
